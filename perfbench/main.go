// Command perfbench is the repository benchmark. It runs one named
// workload, checks the outputs of the programs it drives, and prints the
// result as one JSON line on standard output.
//
// Workloads:
//
//	campaign  curtain simulate: a one-step, wide-population campaign
//	analyze   curtain analyze -parallel 2 over a wide curtainbin dataset
//	resolve   open-loop UDP into fwdns in front of adnsd
//
// With -trace 0 the shipped programs run as child processes and the
// end-to-end metrics are reported. With -trace 1 the same pipeline is
// rebuilt in-process from the public functions those programs call,
// spans are recorded around every call into a layer, and the per-layer
// metrics are reported (see README.md).
//
// Run it through run.sh, which builds everything first:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	root    string // repository root: the working directory
	bin     string // directory holding the built programs
	out     string // scratch directory for inputs, outputs and spans
	seed    uint64
	seconds float64
	trace   bool
	// tiny shrinks every workload to a few seconds (the self-test).
	tiny bool
	// corrupt deliberately damages the named workload's output before it
	// is checked, so the self-test can prove the checks catch errors.
	corrupt bool
}

// deadline returns the wall-clock instant the measured part of a run
// must end by.
func (o *options) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(o.seconds * float64(time.Second)))
}

// check is one output verification; any failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is what a workload hands back to main.
type report struct {
	checks    []check
	attempted int64
	failed    int64
	// metrics holds every value the workload measured, keyed by the
	// names in metrics.go; main picks the end-to-end or per-layer set.
	metrics map[string]float64
	// detail holds the workload's own figures by the names README.md
	// uses (p99_ms.high, bytes_per_exp, ...), printed as human-readable
	// lines and kept in the results file.
	detail []figure
	// spans is the path of the written span file (traced runs).
	spans string
}

// figure is one named, unit-carrying number.
type figure struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]float64{}
	}
	r.metrics[name] = v
}

func (r *report) note(name string, v float64, unit string) {
	r.detail = append(r.detail, figure{name, v, unit})
}

func (r *report) ok() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(*options) (*report, error){
	"campaign": runCampaign,
	"analyze":  runAnalyzeWorkload,
	"resolve":  runResolve,
}

func main() {
	var o options
	var workload string
	var traceFlag int
	flag.StringVar(&workload, "workload", "", "campaign, analyze or resolve")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: drives the population, the analyze input and the query mix")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured time per run")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics from the shipped programs; 1: per-layer metrics from a traced in-process run")
	flag.BoolVar(&o.tiny, "tiny", false, "shrink the workload to a few seconds (self-test)")
	flag.BoolVar(&o.corrupt, "corrupt", false, "damage the output before checking it (self-test of the checks)")
	flag.Parse()
	run, ok := workloads[workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload campaign|analyze|resolve, -trace 0|1 and -seconds > 0\n")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	o.root = root
	o.bin = filepath.Join(root, ".bench_build", "bin")
	o.out = filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}

	h := describeHost(root)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s commit=%s source=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.SourceSHA256[:16])
	rep, err := run(&o)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", workload, err))
	}

	set := endToEnd
	if o.trace {
		set = perLayer
	}
	res := result{Correct: rep.ok(), Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range set {
		v, ok := rep.metrics[m.Name]
		if !ok && !o.trace {
			fatal(fmt.Errorf("%s: workload did not measure %s", workload, m.Name))
		}
		// A per-layer metric the workload did not set belongs to a layer
		// it never calls: that layer did no work.
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	for _, c := range rep.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Printf("check %-28s %s %s\n", c.Name, status, c.Detail)
	}
	for _, f := range rep.detail {
		fmt.Printf("%-28s %14.4f %s\n", f.Name, f.Value, f.Unit)
	}
	if rep.spans != "" {
		fmt.Printf("spans: %s\n", rep.spans)
	}
	resultsPath := filepath.Join(o.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", workload, o.seed, traceFlag))
	if err := writeResults(resultsPath, workload, &o, h, rep, res); err != nil {
		fatal(err)
	}
	fmt.Printf("results: %s\n", resultsPath)

	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// writeResults keeps everything the run measured, beyond the contract
// line: host, checks, every metric and the workload's own figures.
func writeResults(path, workload string, o *options, h host, rep *report, res result) error {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	all := make([]figure, 0, len(names))
	for _, n := range names {
		all = append(all, figure{Name: n, Value: rep.metrics[n], Unit: unitOf(n)})
	}
	doc := map[string]any{
		"workload": workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": h, "checks": rep.checks, "result": res,
		"metrics": all, "figures": rep.detail, "spans": rep.spans,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
