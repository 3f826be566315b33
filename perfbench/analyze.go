package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"

	"cellcurtain"
	"cellcurtain/internal/analysis"
	"cellcurtain/internal/analysis/engine"
	"cellcurtain/internal/dataset"
)

// Analyze workload: curtain analyze -parallel 2 over a wide curtainbin
// dataset (one experiment per client), generated from the seed by curtain
// simulate before anything is timed.
const (
	analyzeScale     = 126.6 // × 158 devices ≈ 20,000 experiments
	analyzeTinyScale = 2.0
	analyzeParallel  = 2
	// inputCacheKeep bounds the generated inputs kept for later runs.
	inputCacheKeep = 6
)

var analyzeStats = regexp.MustCompile(`analyze: (\d+) experiments in ([0-9.]+)s`)
var reportCount = regexp.MustCompile(`^dataset: (\d+) experiments`)

// analyzeInput generates (or reuses) the seed's input dataset and counts
// its records. Inputs are cached per seed and per curtain binary, since a
// different binary may write different bytes.
func analyzeInput(o *options) (path string, records int, err error) {
	scale := analyzeScale
	if o.tiny {
		scale = analyzeTinyScale
	}
	bin := filepath.Join(o.bin, "curtain")
	b, err := os.ReadFile(bin)
	if err != nil {
		return "", 0, fmt.Errorf("read curtain binary: %w", err)
	}
	sum := sha256.Sum256(b)
	path = filepath.Join(o.out, fmt.Sprintf("analyze-input-seed%d-scale%s-%s.bin",
		o.seed, strconv.FormatFloat(scale, 'g', -1, 64), hex.EncodeToString(sum[:6])))
	if _, err := os.Stat(path); err != nil {
		pruneInputs(o.out)
		opts := cellcurtain.Options{Seed: o.seed, Days: 1, IntervalHours: 24, ClientScale: scale, Workers: 2}
		if _, err := runChild(bin, simulateArgs(opts, path)); err != nil {
			return "", 0, fmt.Errorf("generate analyze input: %w", err)
		}
	}
	err = dataset.ScanFile(path, func(*dataset.Experiment) error {
		records++
		return nil
	})
	if err != nil {
		return "", 0, fmt.Errorf("count analyze input: %w", err)
	}
	return path, records, nil
}

// pruneInputs deletes the oldest cached inputs beyond inputCacheKeep-1,
// making room for one more, and the temporary file of any generation
// that was interrupted.
func pruneInputs(dir string) {
	torn, _ := filepath.Glob(filepath.Join(dir, "analyze-input-*.bin.tmp-*"))
	for _, p := range torn {
		_ = os.Remove(p) // a leftover only costs disk
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "analyze-input-*.bin"))
	if len(matches) < inputCacheKeep {
		return
	}
	mtime := func(p string) time.Time {
		if info, err := os.Stat(p); err == nil {
			return info.ModTime()
		}
		return time.Time{}
	}
	sort.Slice(matches, func(i, j int) bool { return mtime(matches[i]).Before(mtime(matches[j])) })
	for _, p := range matches[:len(matches)-inputCacheKeep+1] {
		_ = os.Remove(p) // a leftover input only costs disk
	}
}

// analyzePass is one finished curtain analyze run.
type analyzePass struct {
	report    []byte
	scan      time.Duration // the child's own scan timer
	wall      time.Duration
	peakRSSMB float64
	observed  int // ExperimentCount, from the report's first line
}

func runAnalyzeChild(o *options, in string) (*analyzePass, error) {
	cr, err := runChild(filepath.Join(o.bin, "curtain"),
		[]string{"analyze", "-in", in, "-parallel", strconv.Itoa(analyzeParallel), "-stats"})
	if err != nil {
		return nil, fmt.Errorf("analyze pass: %w", err)
	}
	m := analyzeStats.FindStringSubmatch(cr.stderr)
	if m == nil {
		return nil, fmt.Errorf("curtain analyze printed no -stats line:\n%s", tail(cr.stderr))
	}
	secs, err := strconv.ParseFloat(m[2], 64)
	if err != nil {
		return nil, fmt.Errorf("parse analyze stats %q: %w", m[0], err)
	}
	return &analyzePass{report: cr.stdout, scan: time.Duration(secs * float64(time.Second)),
		wall: cr.wall, peakRSSMB: cr.peakRSSMB, observed: observedCount(cr.stdout)}, nil
}

// observedCount reads ExperimentCount back from a report (-1 if absent).
func observedCount(report []byte) int {
	line, _, _ := bytes.Cut(report, []byte("\n"))
	m := reportCount.FindSubmatch(line)
	if m == nil {
		return -1
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		return -1
	}
	return n
}

func runAnalyzeWorkload(o *options) (*report, error) {
	in, records, err := analyzeInput(o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceAnalyze(o, in, records)
	}
	rep := &report{}
	var setup, rate, rss, wall []float64
	var first *analyzePass
	identical, notObserved := true, 0
	start := time.Now()
	deadline := o.deadline(start)
	for {
		p, err := runAnalyzeChild(o, in)
		if err != nil {
			return nil, err
		}
		if first == nil {
			if o.corrupt {
				p.report = bytes.Replace(p.report, []byte(strconv.Itoa(records)), []byte(strconv.Itoa(records-1)), 1)
				p.observed = observedCount(p.report)
			}
			first = p
		} else {
			identical = identical && bytes.Equal(p.report, first.report)
		}
		if p.observed < records {
			notObserved += records - p.observed
		}
		// The child times its scan; everything else it does — start-up,
		// opening the input, planning the shards, the report — is the
		// fixed cost of the invocation.
		setup = append(setup, (p.wall - p.scan).Seconds())
		rate = append(rate, float64(records)/p.scan.Seconds())
		rss = append(rss, p.peakRSSMB)
		wall = append(wall, float64(p.wall)/1e6)
		if time.Now().Add(p.wall).After(deadline) {
			break
		}
	}
	rep.check("analyze.count", first.observed == records,
		"report ExperimentCount %d, input records %d", first.observed, records)
	rep.check("analyze.deterministic", identical, "%d passes", len(setup))
	rep.attempted = int64(records) * int64(len(setup))
	rep.failed = int64(notObserved)

	rep.set("setup_s", median(setup))
	rep.set("units_per_s", median(rate))
	rep.set("peak_rss_mb", quantile(rss, 1))
	rep.set("p50_ms", median(wall))
	rep.note("setup_s", median(setup), "s")
	rep.note("exp_per_s", median(rate), "exp/s")
	rep.note("peak_rss_mb", quantile(rss, 1), "MB")
	rep.note("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.note("job_ms", median(wall), "ms")
	rep.note("passes", float64(len(setup)), "count")
	rep.note("records", float64(records), "count")
	return rep, nil
}

// Span names of the traced analysis.
const (
	spanScanShard = "dataset.scan_shard"
	spanObserve   = "analysis.observe"
)

func traceAnalyze(o *options, in string, records int) (*report, error) {
	rep := &report{}
	ref, err := runAnalyzeChild(o, in)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	rep.check("analyze.count", ref.observed == records,
		"report ExperimentCount %d, input records %d", ref.observed, records)

	var base, ran, kept runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	// The scan is timed like analyze's own -stats timer: from before the
	// shards are planned to the end of the merge.
	epoch := time.Now()
	shards, err := dataset.FileShards(in, analyzeParallel)
	if err != nil {
		return nil, fmt.Errorf("plan shards: %w", err)
	}
	setup := time.Since(epoch)
	tracers := make([]*tracer, len(shards))
	scanners := make([]engine.Scanner, len(shards))
	for i, s := range shards {
		t := newTracer(epoch, records+2)
		tracers[i] = t
		scanners[i] = func(yield dataset.ScanFunc) error {
			j := t.begin(spanScanShard, uint64(i))
			defer t.end(j)
			return dataset.ScanShard(s, func(e *dataset.Experiment) error {
				k := t.begin(spanObserve, uint64(e.Seq))
				err := yield(e)
				t.end(k)
				return err
			})
		}
	}
	suite := analysis.NewSuite(analysis.SuiteConfig{})
	if err := suite.RunShards(scanners); err != nil {
		return nil, fmt.Errorf("traced analyze: %w", err)
	}
	runEnd := int64(time.Since(epoch))
	work := time.Duration(runEnd)
	runtime.ReadMemStats(&ran)

	var buf bytes.Buffer
	queryStart := time.Now()
	renderAnalysis(&buf, suite)
	query := time.Since(queryStart)
	traced := buf.Bytes()
	if o.corrupt {
		traced = bytes.Replace(traced, []byte("carriers"), []byte("carrier"), 1)
	}
	rep.check("analyze.traced_identical", bytes.Equal(traced, ref.report),
		"traced report %d bytes, curtain analyze %d bytes", len(traced), len(ref.report))
	observed := suite.ExperimentCount()
	rep.check("analyze.traced_count", observed == records, "ExperimentCount %d, input records %d", observed, records)
	rep.attempted = int64(records)
	if observed < records {
		rep.failed = int64(records - observed)
	}

	n := float64(records)
	lts := layerTimes(tracers...)
	var lastShardEnd int64
	var shardDur []float64
	for _, t := range tracers {
		for i := range t.spans {
			if s := &t.spans[i]; s.name == spanScanShard {
				lastShardEnd = max(lastShardEnd, s.end)
				shardDur = append(shardDur, float64(s.dur()))
			}
		}
	}
	rep.spans = filepath.Join(o.out, "spans-analyze.tsv")
	groups := make([][]span, len(tracers))
	for i, t := range tracers {
		groups[i] = t.spans
	}
	if err := writeSpans(rep.spans, groups...); err != nil {
		return nil, fmt.Errorf("traced analyze: %w", err)
	}
	// Retention is read only now that the tracers, whose span buffers
	// are the benchmark's and not the analysis's, are no longer used:
	// the suite is the only large value still reachable.
	runtime.GC()
	runtime.ReadMemStats(&kept)
	runtime.KeepAlive(suite)

	decodeAllocs, err := decodeOnlyAllocs(in)
	if err != nil {
		return nil, fmt.Errorf("traced analyze: %w", err)
	}
	rep.set("dataset.decode_us_per_exp", selfUS(lts, spanScanShard, records))
	rep.set("dataset.decode_allocs_per_exp", decodeAllocs)
	rep.set("dataset.shard_skew", ratio(quantile(shardDur, 1), sum(shardDur)/float64(len(shardDur))))
	rep.set("analysis.observe_us_per_exp", totalUS(lts, spanObserve, records))
	rep.set("analysis.allocs_per_exp", float64(ran.Mallocs-base.Mallocs)/n-decodeAllocs)
	rep.set("analysis.merge_ms", float64(runEnd-lastShardEnd)/1e6)
	rep.set("analysis.query_ms", float64(query)/1e6)
	rep.set("analysis.retained_bytes_per_exp", (float64(kept.HeapAlloc)-float64(base.HeapAlloc))/n)
	untraced := n / ref.scan.Seconds()
	tracedRate := n / work.Seconds()
	rep.set("trace.overhead_ratio", ratio(untraced, tracedRate))

	rep.note("untraced exp_per_s", untraced, "exp/s")
	rep.note("traced exp_per_s", tracedRate, "exp/s")
	rep.note("traced setup_s", setup.Seconds(), "s")
	return rep, nil
}

// decodeOnlyAllocs scans the input serially with a no-op callback and
// returns heap allocations per record: the decoder's share alone.
func decodeOnlyAllocs(path string) (float64, error) {
	var before, after runtime.MemStats
	n := 0
	runtime.ReadMemStats(&before)
	err := dataset.ScanFile(path, func(*dataset.Experiment) error {
		n++
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, fmt.Errorf("decode-only pass: %w", err)
	}
	return ratio(float64(after.Mallocs-before.Mallocs), float64(n)), nil
}
