package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cellcurtain/internal/dataset"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/stats"
)

// ckConfig is the small campaign shape shared by every checkpoint test:
// one day, two steps, a handful of clients per carrier.
func ckConfig(t *testing.T, workers int, faults, dir string) Config {
	t.Helper()
	cfg := DefaultConfig(11)
	cfg.ClientScale = 0.05
	cfg.End = cfg.Start.Add(24 * time.Hour)
	cfg.Workers = workers
	cfg.Faults = faults
	cfg.WorldFactory = func() (*sim.World, error) { return sim.New(sim.Config{Seed: 11}) }
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 2 // frequent fsyncs: exercise the cadence path
	return cfg
}

func ckCampaign(t *testing.T, cfg Config) *Campaign {
	t.Helper()
	w, err := sim.New(sim.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func jsonlBytes(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// uninterrupted runs the campaign without any checkpointing — the golden
// bytes every kill-and-resume variant must reproduce exactly.
func uninterrupted(t *testing.T, workers int, faults string) []byte {
	t.Helper()
	cfg := ckConfig(t, workers, faults, "")
	cfg.CheckpointDir = ""
	c := ckCampaign(t, cfg)
	return jsonlBytes(t, c.Collect())
}

// abortAfter runs a durable campaign that interrupts itself once n
// experiments are complete, returning the completed count at the stop.
func abortAfter(t *testing.T, cfg Config, n int) int {
	t.Helper()
	interrupt := make(chan struct{})
	var once sync.Once
	cfg.Interrupt = interrupt
	c := ckCampaign(t, cfg)
	c.afterExperiment = func(completed int) {
		if completed >= n {
			once.Do(func() { close(interrupt) })
		}
	}
	_, st, err := c.CollectDurable()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("aborted run returned %v, want ErrInterrupted", err)
	}
	if !st.Interrupted || st.Completed < n || st.Completed >= st.Total {
		t.Fatalf("abort at %d: status %+v", n, st)
	}
	return st.Completed
}

func resume(t *testing.T, cfg Config) (*dataset.Dataset, RunStatus) {
	t.Helper()
	cfg.Resume = true
	cfg.Interrupt = nil
	c := ckCampaign(t, cfg)
	ds, st, err := c.CollectDurable()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st.Completed != st.Total {
		t.Fatalf("resume stopped early: %+v", st)
	}
	return ds, st
}

func TestKillResumeInvariance(t *testing.T) {
	// The tentpole guarantee: a campaign killed at any point and resumed
	// produces byte-identical artifacts to an uninterrupted run — serial
	// and sharded, fault-free and under an injected outage.
	for _, tc := range []struct {
		workers int
		faults  string
	}{
		{1, ""},
		{4, ""},
		{1, "resolver-outage"},
		{4, "resolver-outage"},
	} {
		t.Run(fmt.Sprintf("workers=%d,faults=%q", tc.workers, tc.faults), func(t *testing.T) {
			want := uninterrupted(t, tc.workers, tc.faults)
			total := len(bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n")))
			// Abort points across the run, fixed-seed chosen so the test is
			// stable but not hand-picked around boundaries. Points near the
			// very end are excluded: with W workers, up to W experiments are
			// already in flight when the interrupt fires, and a run whose
			// remainder fits in flight can legitimately complete.
			maxN := total - tc.workers - 1
			rng := stats.NewRNG(42)
			points := []int{1, maxN}
			for i := 0; i < 2; i++ {
				points = append(points, 1+rng.Intn(maxN-1))
			}
			for _, n := range points {
				dir := filepath.Join(t.TempDir(), "ck")
				cfg := ckConfig(t, tc.workers, tc.faults, dir)
				completed := abortAfter(t, cfg, n)
				ds, st := resume(t, cfg)
				if st.Reused < completed {
					t.Fatalf("abort at %d durable %d, resume reused only %d", n, completed, st.Reused)
				}
				if got := jsonlBytes(t, ds); !bytes.Equal(got, want) {
					t.Fatalf("abort at %d: resumed dataset differs from uninterrupted run", n)
				}
			}
		})
	}
}

func TestResumeAfterTornSegmentTail(t *testing.T) {
	// A kill -9 mid-append leaves a torn final curtainbin segment. Resume
	// must drop it, report the discarded bytes, re-run its experiments,
	// and still match the uninterrupted bytes.
	want := uninterrupted(t, 1, "")
	dir := filepath.Join(t.TempDir(), "ck")
	cfg := ckConfig(t, 1, "", dir)
	abortAfter(t, cfg, 3)

	seg := filepath.Join(dir, "experiments.bin")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail mid-record: chop the end of the last segment.
	if err := os.Truncate(seg, fi.Size()-17); err != nil {
		t.Fatal(err)
	}

	ds, st := resume(t, cfg)
	if st.DiscardedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	if got := jsonlBytes(t, ds); !bytes.Equal(got, want) {
		t.Fatal("resumed dataset differs from uninterrupted run after torn tail")
	}
}

func TestResumeCompletedCheckpointRunsNothing(t *testing.T) {
	want := uninterrupted(t, 1, "")
	dir := filepath.Join(t.TempDir(), "ck")
	cfg := ckConfig(t, 1, "", dir)

	c := ckCampaign(t, cfg)
	ds, st, err := c.CollectDurable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonlBytes(t, ds), want) {
		t.Fatal("durable run differs from plain Collect")
	}
	if st.Completed != st.Total || st.Reused != 0 {
		t.Fatalf("full durable run status %+v", st)
	}

	// Resuming a finished checkpoint reuses everything.
	ds2, st2 := resume(t, cfg)
	if st2.Reused != st2.Total {
		t.Fatalf("resume of complete checkpoint reused %d/%d", st2.Reused, st2.Total)
	}
	if !bytes.Equal(jsonlBytes(t, ds2), want) {
		t.Fatal("resume of complete checkpoint differs")
	}
}

func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	cfg := ckConfig(t, 1, "", dir)
	abortAfter(t, cfg, 2)

	for name, mutate := range map[string]func(*Config){
		"seed":   func(c *Config) { c.Seed = 12 },
		"faults": func(c *Config) { c.Faults = "resolver-outage" },
		"window": func(c *Config) { c.End = c.End.Add(24 * time.Hour) },
	} {
		bad := cfg
		mutate(&bad)
		bad.Resume = true
		// The campaign itself must build (the mutated config is valid);
		// only the resume handshake rejects it.
		c := ckCampaign(t, bad)
		if _, _, err := c.CollectDurable(); err == nil {
			t.Fatalf("%s-mutated resume accepted a foreign checkpoint", name)
		}
	}
}

// outOfRangeCheckpoint writes a checkpoint whose manifest matches cfg
// but whose segment holds one experiment with a seq past the campaign.
func outOfRangeCheckpoint(t *testing.T, cfg Config, total int) {
	t.Helper()
	ck, err := dataset.CreateCheckpoint(cfg.CheckpointDir, dataset.Manifest{
		Seed: cfg.Seed, ConfigHash: cfg.Hash(), Total: total,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(&dataset.Experiment{Seq: total + 1, ClientID: "stray", Carrier: "att"}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenCheckpointRejectsOutOfRangeSeq(t *testing.T) {
	// A segment record outside 1..total cannot belong to the campaign.
	// RunDurable and the distributed coordinator open checkpoints through
	// the same OpenCheckpoint, so both refuse it with the same error.
	cfg := ckConfig(t, 1, "", filepath.Join(t.TempDir(), "ck"))
	c := ckCampaign(t, cfg)
	total := c.Total()
	outOfRangeCheckpoint(t, cfg, total)
	cfg.Resume = true

	want := fmt.Sprintf("trace: checkpoint %s: experiment seq %d outside 1..%d", cfg.CheckpointDir, total+1, total)
	if _, _, _, err := OpenCheckpoint(cfg, total); err == nil || err.Error() != want {
		t.Fatalf("OpenCheckpoint err = %v, want %q", err, want)
	}
	c.Config = cfg
	if _, err := c.RunDurable(func(*dataset.Experiment) {}); err == nil || err.Error() != want {
		t.Fatalf("RunDurable err = %v, want %q", err, want)
	}
}

func TestCollectDurableRequiresDir(t *testing.T) {
	cfg := ckConfig(t, 1, "", "")
	cfg.CheckpointDir = ""
	c := ckCampaign(t, cfg)
	if _, _, err := c.CollectDurable(); err == nil {
		t.Fatal("CollectDurable without CheckpointDir should fail")
	}
}

// panicCampaign builds a campaign whose runner (and every replica's)
// panics while measuring the experiment with the given seq.
func panicCampaign(t *testing.T, workers, atSeq int) *Campaign {
	t.Helper()
	cfg := ckConfig(t, workers, "", "")
	cfg.CheckpointDir = ""
	c := ckCampaign(t, cfg)
	arm := func(camp *Campaign) {
		camp.runner.BeforeExperiment = func(seq int) {
			if seq == atSeq {
				panic(fmt.Sprintf("injected crash at seq %d", seq))
			}
		}
	}
	arm(c)
	for _, rep := range c.replicas {
		arm(rep)
	}
	return c
}

func TestPanicContainment(t *testing.T) {
	const atSeq = 5
	for _, workers := range []int{1, 4} {
		c := panicCampaign(t, workers, atSeq)
		ds := c.Collect()
		if ds.Len() != c.Total() {
			t.Fatalf("workers=%d: panic cost experiments: %d/%d", workers, ds.Len(), c.Total())
		}
		failed := 0
		for _, e := range ds.Experiments {
			if e.Seq == atSeq {
				if !e.Failed {
					t.Fatalf("workers=%d: crashed experiment not marked failed", workers)
				}
				if e.FailReason != fmt.Sprintf("injected crash at seq %d", atSeq) {
					t.Fatalf("workers=%d: fail reason %q", workers, e.FailReason)
				}
				if e.ClientID == "" || e.Carrier == "" || e.Time.IsZero() {
					t.Fatalf("workers=%d: failure marker missing metadata: %+v", workers, e)
				}
				failed++
				continue
			}
			if e.Failed {
				t.Fatalf("workers=%d: experiment %d failed collaterally: %s", workers, e.Seq, e.FailReason)
			}
			if len(e.Resolutions) == 0 {
				t.Fatalf("workers=%d: experiment %d lost its measurements", workers, e.Seq)
			}
		}
		if failed != 1 {
			t.Fatalf("workers=%d: %d failure markers, want 1", workers, failed)
		}
	}
}

func TestPanicContainmentInvariantAcrossWorkers(t *testing.T) {
	// A contained panic must not break worker-count invariance: the marker
	// and every healthy experiment serialize identically either way.
	serial := jsonlBytes(t, panicCampaign(t, 1, 5).Collect())
	sharded := jsonlBytes(t, panicCampaign(t, 4, 5).Collect())
	if !bytes.Equal(serial, sharded) {
		t.Fatal("panic-containing dataset diverges across worker counts")
	}
}

func TestPanicContainmentSurvivesResume(t *testing.T) {
	// A panic marker written to the checkpoint is reused verbatim on
	// resume, keeping the invariance guarantee.
	want := jsonlBytes(t, panicCampaign(t, 1, 2).Collect())

	dir := filepath.Join(t.TempDir(), "ck")
	interrupt := make(chan struct{})
	var once sync.Once
	cfg := ckConfig(t, 1, "", dir)
	cfg.Interrupt = interrupt
	c := panicCampaign(t, 1, 2)
	c.Config = cfg
	c.afterExperiment = func(completed int) {
		if completed >= 4 { // past the seq-2 panic marker
			once.Do(func() { close(interrupt) })
		}
	}
	if _, _, err := c.CollectDurable(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("aborted run returned %v, want ErrInterrupted", err)
	}

	cfg.Resume = true
	cfg.Interrupt = nil
	rc := panicCampaign(t, 1, 2)
	rc.Config = cfg
	ds, st, err := rc.CollectDurable()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reused < 4 {
		t.Fatalf("resume reused %d, want >= 4", st.Reused)
	}
	if !bytes.Equal(jsonlBytes(t, ds), want) {
		t.Fatal("resumed panic dataset differs")
	}
}
