// Distributed campaign execution: the coordinate and worker subcommands
// split a campaign across processes (and machines) while keeping the
// merged dataset byte-identical to a serial run. See DESIGN.md §14 and
// internal/controlplane for the protocol and the exactly-once argument.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cellcurtain"
	"cellcurtain/internal/controlplane"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/trace"
)

// campaignFlags registers the dataset-determining campaign flags shared
// by coordinate and worker, returning a closure that resolves them into
// Options. Execution flags (workers, checkpoints) are deliberately per
// subcommand — they never affect the dataset.
func campaignFlags(fs *flag.FlagSet) func() cellcurtain.Options {
	seed := fs.Uint64("seed", 2014, "RNG seed")
	days := fs.Int("days", 0, "campaign days (0 = full five months)")
	interval := fs.Int("interval-hours", 0, "experiment period in hours")
	scale := fs.Float64("scale", 0, "client population scale")
	faults := fs.String("faults", "", "fault scenario (preset name or DSL)")
	return func() cellcurtain.Options {
		return cellcurtain.Options{
			Seed: *seed, Days: *days, IntervalHours: *interval,
			ClientScale: *scale, Faults: *faults,
		}
	}
}

// buildCampaign builds a fresh world and single-shard campaign for cfg:
// exactly what one worker process executes, and what the coordinator
// uses to size the experiment space. Execution fields are stripped —
// durability lives with the coordinator's checkpoint, not here.
func buildCampaign(cfg trace.Config) (*trace.Campaign, error) {
	cfg.Workers = 1
	cfg.WorldFactory = nil
	cfg.CheckpointDir, cfg.Resume = "", false
	cfg.Interrupt = nil
	w, err := sim.New(sim.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return trace.NewCampaign(w, cfg)
}

// listenNetwork picks tcp vs unix from the address shape: anything with
// a path separator is a socket path.
func listenNetwork(addr string) string {
	if strings.Contains(addr, "/") {
		return "unix"
	}
	return "tcp"
}

func runCoordinate(args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9290", "address workers connect to (host:port, or a unix socket path)")
	out := fs.String("out", "dataset.jsonl", "output path for the merged dataset")
	formatName := fs.String("format", "", "merged output codec: jsonl or binary (default jsonl; the checkpoint is always curtainbin)")
	jsonOut := fs.Bool("json", false, "one-line JSON status report on stdout after the drain (for scripts)")
	ckDir := fs.String("checkpoint-dir", "", "durable segment directory (required; the exactly-once merge substrate)")
	ckEvery := fs.Int("checkpoint-every", 0, "checkpoint fsync cadence in experiments (0 = default 64)")
	resume := fs.Bool("resume", false, "adopt the checkpoint in -checkpoint-dir and lease only the missing experiments")
	leaseSize := fs.Int("lease", 64, "experiments per leased range (smaller = finer crash re-run granularity)")
	leaseTimeout := fs.Duration("lease-timeout", 10*time.Second, "reassign a lease after this long without a heartbeat")
	opts := campaignFlags(fs)
	fs.Parse(args)
	if *ckDir == "" {
		return fmt.Errorf("coordinate requires -checkpoint-dir (durable segments are what make worker crashes harmless)")
	}
	format, err := dataset.ParseFormat(*formatName)
	if err != nil {
		return err
	}

	cfg := opts().CampaignConfig()
	fmt.Fprintln(os.Stderr, "curtain: coordinator building world to size the campaign...")
	camp, err := buildCampaign(cfg)
	if err != nil {
		return err
	}
	total := camp.Total()
	hash := cfg.Hash()

	cfg.CheckpointDir, cfg.CheckpointEvery, cfg.Resume = *ckDir, *ckEvery, *resume
	ck, prior, torn, err := trace.OpenCheckpoint(cfg, total)
	if err != nil {
		return err
	}
	if torn > 0 {
		fmt.Fprintf(os.Stderr, "curtain: discarded %d bytes of torn segment tail\n", torn)
	}
	defer ck.Close()

	coord := controlplane.NewCoordinator(controlplane.CoordinatorConfig{
		Seed: cfg.Seed, ConfigHash: hash, Total: total,
		Wire:      controlplane.WireFromConfig(cfg),
		LeaseSize: *leaseSize, LeaseTimeout: *leaseTimeout,
		Checkpoint: ck, Prior: prior,
		Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, "curtain: "+format+"\n", a...) },
	})
	ln, err := net.Listen(listenNetwork(*listen), *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "curtain: coordinating %d experiments (hash %s) on %s; %d already durable\n",
		total, hash, ln.Addr(), len(prior))
	coord.Start(ln)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintf(os.Stderr, "curtain: interrupt — flushing checkpoint %s and stopping (again to abort)\n", *ckDir)
		coord.Interrupt()
		<-sig
		fmt.Fprintln(os.Stderr, "curtain: aborting")
		os.Exit(130)
	}()

	ds, st, err := coord.Wait()
	if *jsonOut && (err == nil || errors.Is(err, controlplane.ErrInterrupted)) {
		// The drain report: lease traffic, exactly-once merge dedup counts
		// and grant-to-merge latency quantiles, one JSON object on stdout.
		if jerr := writeCoordStatus(os.Stdout, st); jerr != nil {
			return jerr
		}
	}
	if err != nil {
		if errors.Is(err, controlplane.ErrInterrupted) {
			fmt.Fprintf(os.Stderr, "curtain: %v\ncurtain: resume with: curtain coordinate -resume %s\n",
				err, flagEcho(fs))
		}
		//lint:ignore errwrap coordinator errors are already fully contextualized
		return err
	}
	if err := dataset.WriteFileAtomic(*out, func(w io.Writer) error {
		return ds.Write(w, format)
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"curtain: wrote %d experiments to %s (%d reused, %d workers, %d leases granted, %d reassigned, %d released, %d duplicate seqs dropped, %d rejected)\n",
		st.Completed, *out, st.Reused, st.WorkersSeen, st.Granted, st.Reassigned, st.Released, st.DupSeqs, st.Rejected)
	return nil
}

// writeCoordStatus renders the drained coordinator status as one JSON
// line, mirroring loadgen's -json contract: machine-readable fields on
// stdout, human narrative on stderr.
func writeCoordStatus(w io.Writer, st controlplane.Status) error {
	report := struct {
		Total            int     `json:"total"`
		Completed        int     `json:"completed"`
		Reused           int     `json:"reused"`
		Workers          int     `json:"workers"`
		Rejected         int     `json:"rejected"`
		LeasesGranted    int     `json:"leases_granted"`
		LeasesReassigned int     `json:"leases_reassigned"`
		LeasesReleased   int     `json:"leases_released"`
		LeasesServed     int     `json:"leases_served"`
		DupSeqs          int     `json:"dup_seqs"`
		LeaseP50Secs     float64 `json:"lease_p50_secs"`
		LeaseP95Secs     float64 `json:"lease_p95_secs"`
		Interrupted      bool    `json:"interrupted"`
	}{
		Total: st.Total, Completed: st.Completed, Reused: st.Reused,
		Workers: st.WorkersSeen, Rejected: st.Rejected,
		LeasesGranted: st.Granted, LeasesReassigned: st.Reassigned,
		LeasesReleased: st.Released, LeasesServed: st.LeasesServed,
		DupSeqs:      st.DupSeqs,
		LeaseP50Secs: st.LeaseP50Secs, LeaseP95Secs: st.LeaseP95Secs,
		Interrupted: st.Interrupted,
	}
	if err := json.NewEncoder(w).Encode(report); err != nil {
		return fmt.Errorf("encode status report: %w", err)
	}
	return nil
}

func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9290", "coordinator address (host:port, or a unix socket path)")
	id := fs.String("id", "", "worker name in coordinator logs (default worker-<pid>)")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "lease heartbeat interval (keep well under the coordinator's -lease-timeout)")
	opts := campaignFlags(fs)
	fs.Parse(args)

	// A worker normally runs config-free and adopts whatever the
	// coordinator pushes. Campaign flags, when given explicitly, become a
	// fingerprint claim the coordinator verifies — a worker pointed at
	// the wrong campaign is rejected at handshake instead of computing a
	// spliced dataset.
	claimed := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed", "days", "interval-hours", "scale", "faults":
			claimed = true
		}
	})
	claim := ""
	if claimed {
		claim = opts().CampaignConfig().Hash()
	}
	name := *id
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}

	// First SIGINT/SIGTERM drains: finish and deliver the running range,
	// then leave. A second signal aborts — the coordinator reassigns the
	// abandoned lease the moment the socket dies.
	interrupt := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "curtain: interrupt — finishing the current range, then leaving (again to abort)")
		close(interrupt)
		<-sig
		fmt.Fprintln(os.Stderr, "curtain: aborting")
		os.Exit(130)
	}()

	st, err := controlplane.RunWorker(controlplane.WorkerConfig{
		ID: name, Addr: *addr, ConfigHash: claim,
		HeartbeatEvery: *heartbeat,
		Interrupt:      interrupt,
		Build: func(wc controlplane.WireConfig, total int) (controlplane.RunRange, error) {
			cfg := wc.Config()
			fmt.Fprintf(os.Stderr, "curtain: %s building world (seed %d)...\n", name, cfg.Seed)
			camp, err := buildCampaign(cfg)
			if err != nil {
				return nil, err
			}
			if camp.Total() != total {
				return nil, fmt.Errorf("local campaign sizes to %d experiments, coordinator says %d (world build not deterministic?)", camp.Total(), total)
			}
			return controlplane.CampaignRunner(camp.RunSeq), nil
		},
		Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, "curtain: "+format+"\n", a...) },
	})
	if err != nil {
		//lint:ignore errwrap worker errors are already fully contextualized
		return err
	}
	outcome := "campaign complete"
	if st.Drained {
		outcome = "drained on interrupt"
	}
	fmt.Fprintf(os.Stderr, "curtain: %s done (%s): %d ranges, %d experiments, %d dropped as duplicates, %d waits\n",
		name, outcome, st.Ranges, st.Experiments, st.Dups, st.Waits)
	return nil
}
