package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"cellcurtain"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/ldns"
	"cellcurtain/internal/publicdns"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/trace"
	"cellcurtain/internal/vnet"
)

// Campaign workload: a one-step, wide-population campaign (one
// experiment per client, every client derived on demand) streamed to a
// curtainbin file — the shape the million-client direction depends on.
// It runs on one worker: with two workers on a two-CPU host the workers,
// the garbage collector and the in-order merge contend for the CPUs, and
// job throughput varied by a fifth from run to run; on one worker it
// varies by a few percent.
const (
	campaignScale     = 12.5 // × the paper's 158 devices = 1,975 clients
	campaignTinyScale = 1.0
	campaignWorkers   = 1
)

// campaignOptions is the campaign the workload runs for a seed.
func campaignOptions(o *options) cellcurtain.Options {
	scale := campaignScale
	if o.tiny {
		scale = campaignTinyScale
	}
	return cellcurtain.Options{Seed: o.seed, Days: 1, IntervalHours: 24, ClientScale: scale, Workers: campaignWorkers}
}

// simulateArgs is the curtain simulate command line for the campaign.
func simulateArgs(opts cellcurtain.Options, out string) []string {
	return []string{"simulate",
		"-seed", strconv.FormatUint(opts.Seed, 10),
		"-days", strconv.Itoa(opts.Days),
		"-interval-hours", strconv.Itoa(opts.IntervalHours),
		"-scale", strconv.FormatFloat(opts.ClientScale, 'g', -1, 64),
		"-workers", strconv.Itoa(opts.Workers),
		"-format", "binary", "-stats", "-out", out}
}

// simulateStats is curtain simulate -stats's line; seconds is its own
// timer over running the campaign and writing the file.
var simulateStats = regexp.MustCompile(`simulate stats: clients=\d+ experiments=\d+ seconds=([0-9.]+) `)

// campaignJob is one finished curtain simulate run.
type campaignJob struct {
	// work is the child's own run-and-write time; setup is the rest of
	// its wall time: start-up, world, replica and campaign construction,
	// and exit.
	setup, work time.Duration
	wall        time.Duration
	peakRSSMB   float64
	bytes       int64
	digest      [32]byte
}

func runSimulate(o *options, opts cellcurtain.Options, out string) (*campaignJob, error) {
	cr, err := runChild(filepath.Join(o.bin, "curtain"), simulateArgs(opts, out))
	if err != nil {
		return nil, fmt.Errorf("campaign job: %w", err)
	}
	m := simulateStats.FindStringSubmatch(cr.stderr)
	if m == nil {
		return nil, fmt.Errorf("curtain simulate printed no -stats line:\n%s", tail(cr.stderr))
	}
	secs, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return nil, fmt.Errorf("parse simulate stats %q: %w", m[0], err)
	}
	work := time.Duration(secs * float64(time.Second))
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, fmt.Errorf("read campaign output: %w", err)
	}
	return &campaignJob{setup: cr.wall - work, work: work, wall: cr.wall,
		peakRSSMB: cr.peakRSSMB, bytes: int64(len(b)), digest: sha256.Sum256(b)}, nil
}

// campaignTotal builds the campaign in-process to learn how many
// experiments it must produce.
func campaignTotal(opts cellcurtain.Options) (int, error) {
	cfg := opts.CampaignConfig()
	cfg.Workers = 1
	w, err := sim.New(sim.Config{Seed: cfg.Seed})
	if err != nil {
		return 0, fmt.Errorf("build world: %w", err)
	}
	camp, err := trace.NewCampaign(w, cfg)
	if err != nil {
		return 0, fmt.Errorf("build campaign: %w", err)
	}
	return camp.Total(), nil
}

// verifyDataset decodes a campaign output and reports how many
// experiments are failed markers or missing, checking the canonical
// seq order on the way.
func verifyDataset(rep *report, path string, total int) (failed int) {
	n, markers, orderOK := 0, 0, true
	err := dataset.ScanFile(path, func(e *dataset.Experiment) error {
		n++
		if e.Seq != n {
			orderOK = false
		}
		if e.Failed {
			markers++
		}
		return nil
	})
	if err != nil {
		rep.check("campaign.decodes", false, "%v", err)
	} else {
		rep.check("campaign.decodes", true, "%s", path)
	}
	rep.check("campaign.count", n == total, "%d experiments, Campaign.Total() = %d", n, total)
	rep.check("campaign.seq_order", orderOK, "seq 1..%d in order", n)
	missing := total - n
	if missing < 0 {
		missing = 0
	}
	return markers + missing
}

// corruptFile truncates a file to three quarters of its size: a torn
// final segment the decoder must reject.
func corruptFile(path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("corrupt: %w", err)
	}
	if err := os.Truncate(path, info.Size()*3/4); err != nil {
		return fmt.Errorf("corrupt: %w", err)
	}
	return nil
}

func runCampaign(o *options) (*report, error) {
	opts := campaignOptions(o)
	total, err := campaignTotal(opts)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceCampaign(o, opts, total)
	}
	rep := &report{}
	out := filepath.Join(o.out, "campaign.bin")
	var setup, rate, rss, wall []float64
	var first *campaignJob
	failedPerJob, identical := 0, true
	start := time.Now()
	deadline := o.deadline(start)
	for {
		job, err := runSimulate(o, opts, out)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = job
			if o.corrupt {
				if err := corruptFile(out); err != nil {
					return nil, err
				}
			}
			failedPerJob = verifyDataset(rep, out, total)
		} else {
			// Every job runs the same seed, so every output must be the
			// same bytes as the verified first one.
			identical = identical && job.digest == first.digest
		}
		setup = append(setup, job.setup.Seconds())
		rate = append(rate, float64(total)/job.work.Seconds())
		rss = append(rss, job.peakRSSMB)
		wall = append(wall, float64(job.wall)/1e6)
		// Start another job only if it is expected to end in time.
		if time.Now().Add(job.wall).After(deadline) {
			break
		}
	}
	rep.check("campaign.deterministic", identical, "%d jobs of one seed", len(setup))
	failed := failedPerJob * len(setup)
	rep.attempted = int64(total) * int64(len(setup))
	rep.failed = int64(failed)

	rep.set("setup_s", median(setup))
	rep.set("units_per_s", median(rate))
	rep.set("peak_rss_mb", quantile(rss, 1))
	rep.set("p50_ms", median(wall))
	rep.note("setup_s", median(setup), "s")
	rep.note("exp_per_s", median(rate), "exp/s")
	rep.note("peak_rss_mb", quantile(rss, 1), "MB")
	rep.note("bytes_per_exp", float64(first.bytes)/float64(total), "B")
	rep.note("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.note("job_ms", median(wall), "ms")
	rep.note("jobs", float64(len(setup)), "count")
	rep.note("clients", float64(total), "count")
	return rep, nil
}

// Span names of the traced campaign.
const (
	spanExp      = "trace.exp"
	spanRoute    = "sim.route"
	spanLDNS     = "ldns.serve"
	spanPublic   = "publicdns.serve"
	spanCDN      = "cdn.serve"
	spanADNS     = "adns.serve"
	spanAppend   = "dataset.append"
	spanFlush    = "dataset.flush"
	encodeSample = 1024 // experiments re-encoded in the encode-only pass
)

// instrumentWorld routes every call into a simulated layer of w through
// a span on t: the router (sim) and the DNS services of the carriers'
// client-facing resolvers (ldns), the public resolvers (publicdns), the
// CDN authorities (cdn) and the whoami authority (adns). The replica
// HTTP responders are not wrapped; their time counts as measure's.
func instrumentWorld(w *sim.World, t *tracer) error {
	w.Fabric.SetRouter(vnet.RouterFunc(func(src, dst netip.Addr) (vnet.Route, error) {
		i := t.begin(spanRoute, 0)
		r, err := w.Route(src, dst)
		t.end(i)
		return r, err
	}))
	wrap := func(addr netip.Addr, name string, h vnet.Handler) error {
		ep, ok := w.Fabric.Endpoint(addr)
		if !ok {
			return fmt.Errorf("instrument: no endpoint at %s", addr)
		}
		ep.Handle(53, vnet.HandlerFunc(func(req vnet.Request) ([]byte, time.Duration, error) {
			i := t.begin(name, 0)
			out, d, err := h.Serve(req)
			t.end(i)
			return out, d, err
		}))
		return nil
	}
	for _, cn := range w.Carriers {
		for i, addr := range cn.ClientFacing {
			if err := wrap(addr, spanLDNS, &ldns.Frontend{Index: i, Addr: addr, Eng: cn.Engine}); err != nil {
				return err
			}
		}
	}
	for _, s := range []*publicdns.Service{w.Google, w.OpenDNS} {
		if err := wrap(s.VIP, spanPublic, s); err != nil {
			return err
		}
	}
	for _, p := range w.CDN.Providers {
		if err := wrap(p.ADNSAddr, spanCDN, p); err != nil {
			return err
		}
	}
	return wrap(w.WhoamiAddr, spanADNS, w.Whoami)
}

// tracedCampaign is the in-process rebuild of curtain simulate: the
// campaign over an instrumented world, experiments run by
// Campaign.RunSeq in canonical order, encoded by BinaryWriter and
// written through dataset.WriteFileAtomic as simulate writes them.
type tracedCampaign struct {
	// work is timed like simulate's -stats seconds: from before the
	// atomic write to after its rename.
	setup, work time.Duration
	data        []byte
	mallocs     uint64
	tracer      *tracer
	sample      []*dataset.Experiment // the first encodeSample experiments
}

func runTracedCampaign(opts cellcurtain.Options, total int, out string) (*tracedCampaign, error) {
	epoch := time.Now()
	tc := &tracedCampaign{tracer: newTracer(epoch, 300*total)}
	cfg := opts.CampaignConfig()
	world, err := sim.New(sim.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("build world: %w", err)
	}
	if err := instrumentWorld(world, tc.tracer); err != nil {
		return nil, fmt.Errorf("traced campaign: %w", err)
	}
	camp, err := trace.NewCampaign(world, cfg)
	if err != nil {
		return nil, fmt.Errorf("build campaign: %w", err)
	}
	tc.setup = time.Since(epoch)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runStart := time.Now()
	t := tc.tracer
	err = dataset.WriteFileAtomic(out, func(w io.Writer) error {
		bw := dataset.NewBinaryWriter(w)
		for seq := 1; seq <= total; seq++ {
			i := t.begin(spanExp, uint64(seq))
			e, err := camp.RunSeq(seq)
			t.end(i)
			if err != nil {
				return fmt.Errorf("run experiment %d: %w", seq, err)
			}
			i = t.begin(spanAppend, uint64(seq))
			err = bw.Append(e)
			t.end(i)
			if err != nil {
				return fmt.Errorf("encode experiment %d: %w", seq, err)
			}
			if len(tc.sample) < encodeSample {
				tc.sample = append(tc.sample, e)
			}
		}
		i := t.begin(spanFlush, 0)
		err := bw.Flush()
		t.end(i)
		if err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		return nil
	})
	tc.work = time.Since(runStart)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("traced campaign: %w", err)
	}
	tc.mallocs = after.Mallocs - before.Mallocs
	if tc.data, err = os.ReadFile(out); err != nil {
		return nil, fmt.Errorf("read traced campaign output: %w", err)
	}
	return tc, nil
}

// encodeAllocs re-encodes exps alone and returns heap allocations per
// experiment.
func encodeAllocs(exps []*dataset.Experiment) (float64, error) {
	if len(exps) == 0 {
		return 0, nil
	}
	var buf bytes.Buffer
	bw := dataset.NewBinaryWriter(&buf)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, e := range exps {
		if err := bw.Append(e); err != nil {
			return 0, fmt.Errorf("encode-only pass: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("encode-only pass: %w", err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(exps)), nil
}

func traceCampaign(o *options, opts cellcurtain.Options, total int) (*report, error) {
	rep := &report{}
	out := filepath.Join(o.out, "campaign.bin")
	job, err := runSimulate(o, opts, out)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	failed := verifyDataset(rep, out, total)
	ref, err := os.ReadFile(out)
	if err != nil {
		return nil, fmt.Errorf("read campaign output: %w", err)
	}
	tc, err := runTracedCampaign(opts, total, filepath.Join(o.out, "campaign-traced.bin"))
	if err != nil {
		return nil, fmt.Errorf("traced campaign: %w", err)
	}
	if o.corrupt {
		tc.data[len(tc.data)/2] ^= 0xff
	}
	rep.check("campaign.traced_identical", bytes.Equal(tc.data, ref),
		"traced %d bytes, curtain simulate %d bytes", len(tc.data), len(ref))
	rep.attempted = int64(total)
	rep.failed = int64(failed)

	lts := layerTimes(tc.tracer)
	n := total
	rep.set("trace.exp_us", totalUS(lts, spanExp, n))
	rep.set("trace.allocs_per_exp", float64(tc.mallocs)/float64(n))
	if r := lts[spanRoute]; r != nil {
		rep.set("sim.route_calls_per_exp", float64(r.count)/float64(n))
		rep.set("sim.route_ns_per_call", float64(r.total)/float64(r.count))
		rep.set("sim.route_share", ratio(float64(r.total), float64(lts[spanExp].total)))
	}
	rep.set("ldns.serve_self_us_per_exp", selfUS(lts, spanLDNS, n))
	rep.set("publicdns.serve_self_us_per_exp", selfUS(lts, spanPublic, n))
	rep.set("cdn.serve_self_us_per_exp", selfUS(lts, spanCDN, n))
	rep.set("adns.serve_self_us_per_exp", selfUS(lts, spanADNS, n))
	rep.set("measure.self_us_per_exp", selfUS(lts, spanExp, n))
	rep.set("dataset.encode_us_per_exp", totalUS(lts, spanAppend, n)+totalUS(lts, spanFlush, n))
	allocs, err := encodeAllocs(tc.sample)
	if err != nil {
		return nil, fmt.Errorf("traced campaign: %w", err)
	}
	rep.set("dataset.encode_allocs_per_exp", allocs)
	rep.set("dataset.bytes_per_exp", float64(len(tc.data))/float64(n))
	untraced := float64(total) / job.work.Seconds()
	traced := float64(total) / tc.work.Seconds()
	rep.set("trace.overhead_ratio", ratio(untraced, traced))

	rep.note("untraced exp_per_s", untraced, "exp/s")
	rep.note("traced exp_per_s", traced, "exp/s")
	rep.note("traced setup_s", tc.setup.Seconds(), "s")
	rep.spans = filepath.Join(o.out, "spans-campaign.tsv")
	if err := writeSpans(rep.spans, tc.tracer.spans); err != nil {
		return nil, fmt.Errorf("traced campaign: %w", err)
	}
	return rep, nil
}
