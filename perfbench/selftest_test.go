package main

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The self-test runs every workload once at tiny scale through run.sh,
// exactly as the benchmark is invoked, and checks the printed result
// against BENCHMARK.json. It then runs each workload with its output
// deliberately damaged and requires the run to fail, so the output
// checks are shown to catch errors. Run it from this directory:
//
//	go test -run SelfTest -v
//
// It takes about a minute and needs the Go toolchain and loopback UDP.

type benchSpec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// runBench runs the benchmark command from the repository root and
// returns the parsed last line and the exit error.
func runBench(t *testing.T, spec benchSpec, args ...string) (result, string, error) {
	t.Helper()
	cmd := exec.Command(spec.Command[0], append(spec.Command[1:], args...)...)
	cmd.Dir = ".."
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("%v: last stdout line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, jerr, stdout.String(), stderr.String())
	}
	return res, stdout.String(), err
}

func TestSelfTestMetricsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	for _, set := range []struct {
		spec []specMetric
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.spec) != len(set.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, metrics.go %d", len(set.spec), len(set.code))
		}
		for i, m := range set.spec {
			if m.Name != set.code[i].Name || m.Unit != set.code[i].Unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], metrics.go %s [%s]", i, m.Name, m.Unit, set.code[i].Name, set.code[i].Unit)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, implemented %d", names, len(workloads))
	}
}

func TestSelfTestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			res, out, err := runBench(t, spec, "--workload", w.Name, "--seed", "7", "--seconds", "2", "--trace", trace, "-tiny")
			if err != nil || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace %s: err %v, correct %v, attempted %d\n%s", w.Name, trace, err, res.Correct, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			// Corrupted output must fail the run: a truncated campaign
			// file, an altered analyze report, flipped answer bytes.
			res, out, err = runBench(t, spec, "--workload", w.Name, "--seed", "7", "--seconds", "2", "--trace", trace, "-tiny", "-corrupt")
			if err == nil || res.Correct {
				t.Errorf("%s trace %s: corrupted output passed the checks\n%s", w.Name, trace, out)
			}
		}
	}
}

// A phase must never send more queries per socket than there are DNS
// IDs: a reused ID would let a late answer be taken for a newer query.
// The ladder's fast steps are shortened instead, and runPhase refuses a
// mix that would wrap before it opens a socket.
func TestSelfTestPhaseIDsNeverWrap(t *testing.T) {
	for _, c := range []struct {
		rate    float64
		seconds float64
		sockets int
	}{{102400, 1.5, 2}, {163840, 1.5, 1}, {87000, 1.5, 2}, {10000, 3, 2}} {
		n := phaseQueries(c.rate, time.Duration(c.seconds*float64(time.Second)), c.sockets)
		if per := (n + c.sockets - 1) / c.sockets; per > maxQueriesPerSocket {
			t.Errorf("%.0f qps for %.1f s over %d sockets: %d queries per socket, IDs wrap past %d",
				c.rate, c.seconds, c.sockets, per, maxQueriesPerSocket)
		}
		if want := min(int(c.rate*c.seconds), maxQueriesPerSocket*c.sockets); n != want {
			t.Errorf("%.0f qps for %.1f s over %d sockets: %d queries, want %d", c.rate, c.seconds, c.sockets, n, want)
		}
	}
	target := netip.MustParseAddrPort("127.0.0.1:9")
	if _, err := runPhase(target, "wrap", make([]mixQuery, 2*maxQueriesPerSocket+1), 1, 2, false); err == nil {
		t.Errorf("runPhase accepted %d queries over 2 sockets", 2*maxQueriesPerSocket+1)
	}
}
