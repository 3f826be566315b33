package main

// metricDef is one reported metric; the lists below must match
// BENCHMARK.json (the self-test checks it).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are reported with -trace 0 by every workload. What a "unit"
// is depends on the workload: an experiment generated (campaign), an
// experiment analyzed (analyze) or a query answered (resolve); see
// README.md for each definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
}

// perLayer are reported with -trace 1 by every workload. A layer a
// workload never calls reports 0 there.
var perLayer = []metricDef{
	{"trace.exp_us", "us"},
	{"trace.allocs_per_exp", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"sim.route_calls_per_exp", "count"},
	{"sim.route_ns_per_call", "ns"},
	{"sim.route_share", "ratio"},
	{"ldns.serve_self_us_per_exp", "us"},
	{"publicdns.serve_self_us_per_exp", "us"},
	{"cdn.serve_self_us_per_exp", "us"},
	{"adns.serve_self_us_per_exp", "us"},
	{"measure.self_us_per_exp", "us"},
	{"dataset.encode_us_per_exp", "us"},
	{"dataset.encode_allocs_per_exp", "count"},
	{"dataset.bytes_per_exp", "B"},
	{"dataset.decode_us_per_exp", "us"},
	{"dataset.decode_allocs_per_exp", "count"},
	{"dataset.shard_skew", "ratio"},
	{"analysis.observe_us_per_exp", "us"},
	{"analysis.allocs_per_exp", "count"},
	{"analysis.merge_ms", "ms"},
	{"analysis.query_ms", "ms"},
	{"analysis.retained_bytes_per_exp", "B"},
	{"forwarder.hit_frac", "ratio"},
	{"forwarder.coalesced", "count"},
	{"forwarder.self_us.p50", "us"},
	{"forwarder.self_us.p99", "us"},
	{"upstream.query_us.p50", "us"},
	{"upstream.query_us.p99", "us"},
	{"upstream.attempts_per_miss", "ratio"},
	{"adns.answer_us", "us"},
	{"dnsserver.outside_us.p50", "us"},
	{"dnsserver.outside_us.p99", "us"},
	{"dnsserver.served.fwdns", "count"},
	{"dnsserver.served.adnsd", "count"},
	{"dnsserver.overload_servfails.fwdns", "count"},
	{"dnsserver.overload_servfails.adnsd", "count"},
	{"dnsserver.drops.fwdns", "count"},
	{"dnsserver.drops.adnsd", "count"},
	{"loadgen.late_p99_ms", "ms"},
}

// unitOf returns a metric's unit ("" for a name in neither list).
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
