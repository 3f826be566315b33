package main

import (
	"path/filepath"
	"testing"
	"time"

	"cellcurtain"
	"cellcurtain/internal/dataset"
)

// TestCoordinateResumeRejectsOutOfRangeSeq resumes `curtain coordinate`
// from a checkpoint whose segment holds a seq past the campaign. The
// coordinator must refuse it before leasing anything, with the error
// `curtain simulate -resume` (RunDurable) gives for the same directory.
func TestCoordinateResumeRejectsOutOfRangeSeq(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	flags := []string{"-seed", "11", "-days", "1", "-scale", "0.05"}
	cfg := cellcurtain.Options{Seed: 11, Days: 1, ClientScale: 0.05}.CampaignConfig()
	camp, err := buildCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := camp.Total()
	ck, err := dataset.CreateCheckpoint(dir, dataset.Manifest{
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

	// A coordinator that accepts the checkpoint listens and waits for
	// workers forever; bound the wait so that failure cannot hang.
	done := make(chan error, 1)
	go func() {
		done <- runCoordinate(append([]string{"-listen", "127.0.0.1:0", "-checkpoint-dir", dir, "-resume"}, flags...))
	}()
	var coordErr error
	select {
	case coordErr = <-done:
	case <-time.After(time.Minute):
		t.Fatal("coordinate -resume accepted a segment holding an out-of-range seq and began leasing")
	}
	if coordErr == nil {
		t.Fatal("coordinate -resume accepted a segment holding an out-of-range seq")
	}

	cfg.CheckpointDir, cfg.Resume = dir, true
	durable, err := streamCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := durable.RunDurable(func(*dataset.Experiment) {})
	if runErr == nil || runErr.Error() != coordErr.Error() {
		t.Fatalf("coordinate -resume error %q, RunDurable error %v: want the same", coordErr, runErr)
	}
}
