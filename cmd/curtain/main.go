// Command curtain drives the cellcurtain reproduction study from the
// command line.
//
// Usage:
//
//	curtain list                          print the experiment catalog
//	curtain report [flags]                regenerate every table and figure
//	curtain exp -id F14 [flags]           regenerate one artifact
//	curtain simulate -out data.jsonl      run a campaign, dump the dataset
//
// Common flags: -seed, -days, -interval-hours, -scale, -workers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cellcurtain"
	"cellcurtain/internal/controlplane"
	"cellcurtain/internal/dataset"
	"cellcurtain/internal/sim"
	"cellcurtain/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = runList()
	case "report":
		err = runReport(args)
	case "exp":
		err = runExp(args)
	case "simulate":
		err = runSimulate(args)
	case "convert":
		err = runConvert(args)
	case "analyze":
		err = runAnalyze(args)
	case "loadgen":
		err = runLoadgen(args)
	case "coordinate":
		err = runCoordinate(args)
	case "worker":
		err = runWorker(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "curtain: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "curtain:", err)
		if errors.Is(err, controlplane.ErrInterrupted) {
			// Coordinator stop with a flushed checkpoint: clean exit, the
			// resume hint was already printed.
			return
		}
		if errors.Is(err, trace.ErrInterrupted) {
			// A requested stop with a flushed checkpoint exits cleanly.
			fmt.Fprintln(os.Stderr, "curtain: add -resume to the same command to continue")
			return
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: curtain <command> [flags]

commands:
  list       print the experiment catalog (table/figure IDs)
  report     run a campaign and regenerate every table and figure
  exp        regenerate one artifact: curtain exp -id F14
  simulate   run a campaign and stream the raw dataset to disk
             (JSONL or compact curtainbin; bounded memory)
  convert    transcode a dataset between jsonl and binary (auto-detects
             the input codec; round trips are byte-identical)
  analyze    offline analysis of a dataset file or checkpoint directory
             (jsonl or binary, auto-detected; no simulation)
  loadgen    hammer a DNS resolver at a target QPS and report latency
  coordinate lease a campaign's experiments to worker processes and
             merge their results (crash-tolerant, byte-identical to
             a serial run; see DESIGN.md §14)
  worker     join a coordinated campaign and execute leased ranges

flags (loadgen):
  -target ADDR        resolver under test (default 127.0.0.1:5353)
  -qps N              target aggregate queries per second (default 10000)
  -duration D         send phase length (default 3s)
  -conns N            UDP sockets; distinct source ports exercise
                      SO_REUSEPORT sharding (default 4)
  -zone Z             zone for the query names (default loadgen.example)
  -names N            distinct names in the mix (default 1024)
  -seed N             RNG seed; same seed = same query sequence
  -timeout D          drain window; later responses count as timeouts
  -json               one-line JSON report on stdout (for scripts)

flags (convert):
  -in PATH            input dataset, jsonl or binary (auto-detected)
  -out PATH           output path (required)
  -format F           output codec (default: the opposite of the input)

flags (analyze):
  -in PATH            dataset file (jsonl or binary, auto-detected) or
                      campaign checkpoint directory (default dataset.jsonl)
  -parallel N         concurrent shard scanners over a dataset file; output
                      is byte-identical for any N (default 1)
  -legacy             materialize the dataset and use the slice metric
                      path instead of the streaming engine (same output)
  -progress           report scan progress on stderr
  -stats              report scan time and peak RSS on stderr

flags (coordinate):
  -listen ADDR        address workers connect to (default 127.0.0.1:9290;
                      a path means a unix socket)
  -checkpoint-dir D   durable segment directory (required); worker crashes
                      and coordinator restarts recover from it
  -resume             adopt the checkpoint and lease only what is missing
  -lease N            experiments per leased range (default 64)
  -lease-timeout D    reassign a lease after this long without a
                      heartbeat (default 10s)
  -out PATH           merged dataset path (default dataset.jsonl)
  -format F           merged output codec: jsonl or binary (default
                      jsonl); the checkpoint is always curtainbin
  -json               one-line JSON status report on stdout after the
                      drain: lease grants/reassignments, dedup counts,
                      grant-to-merge latency p50/p95 (for scripts)
  plus the campaign flags: -seed -days -interval-hours -scale -faults

flags (worker):
  -addr ADDR          coordinator to join (default 127.0.0.1:9290)
  -id NAME            worker name in coordinator logs
  -heartbeat D        lease heartbeat interval (default 2s)
  campaign flags given here become a fingerprint claim that the
  coordinator verifies; omit them to adopt the pushed config

flags (report/exp/simulate):
  -seed N             RNG seed (default 2014)
  -days N             campaign length in days (default: full five months)
  -interval-hours N   per-device experiment period (default 12)
  -scale F            client population scale (default 1.0 = 158 devices)
  -workers N          parallel campaign workers (default 1; results are
                      byte-identical for any worker count)
  -faults S           fault scenario: a preset (resolver-outage,
                      resolver-blackhole, radio-degraded, resolver-flap,
                      public-dns-storm, authority-outage) or DSL text like
                      "outage:target=local,start=25%,dur=50%,mode=servfail"
                      (deterministic in -seed; see internal/fault)
  -checkpoint-dir D   durable campaign checkpoint directory: completed
                      experiments are fsync'd there as the run progresses,
                      and SIGINT/SIGTERM drains in-flight experiments and
                      flushes the checkpoint before exiting. The segment
                      is curtainbin (D/experiments.bin); inspect it with
                      curtain analyze -in D, or, once the run has closed
                      it cleanly, curtain convert -in D/experiments.bin
  -checkpoint-every N checkpoint fsync cadence in experiments (default 64)
  -resume             continue the campaign checkpointed in -checkpoint-dir
                      (verified against -seed and the other campaign flags);
                      the result is byte-identical to an uninterrupted run
  -format F           simulate only: output codec, jsonl or binary
                      (default jsonl; binary is the compact curtainbin
                      form, DESIGN.md §15)
  -out PATH           simulate only: output dataset path`)
}

// optionFlags registers the full campaign flag set (dataset-determining
// and execution flags alike) and returns a closure resolving them into
// Options, with the interrupt-to-drain signal handler installed when the
// run is checkpointed.
func optionFlags(fs *flag.FlagSet) func() (cellcurtain.Options, error) {
	seed := fs.Uint64("seed", 2014, "RNG seed")
	days := fs.Int("days", 0, "campaign days (0 = full five months)")
	interval := fs.Int("interval-hours", 0, "experiment period in hours")
	scale := fs.Float64("scale", 0, "client population scale")
	workers := fs.Int("workers", 0, "parallel campaign workers (0 = serial)")
	faults := fs.String("faults", "", "fault scenario (preset name or DSL)")
	ckDir := fs.String("checkpoint-dir", "", "durable checkpoint directory (empty = no checkpointing)")
	ckEvery := fs.Int("checkpoint-every", 0, "checkpoint fsync cadence in experiments (0 = default 64)")
	resume := fs.Bool("resume", false, "resume the campaign checkpointed in -checkpoint-dir")
	return func() (cellcurtain.Options, error) {
		if *resume && *ckDir == "" {
			return cellcurtain.Options{}, fmt.Errorf("-resume requires -checkpoint-dir")
		}
		var interrupt <-chan struct{}
		if *ckDir != "" {
			interrupt = notifyInterrupt(*ckDir)
		}
		return cellcurtain.Options{
			Seed: *seed, Days: *days, IntervalHours: *interval, ClientScale: *scale,
			Workers: *workers, Faults: *faults,
			CheckpointDir: *ckDir, CheckpointEvery: *ckEvery,
			Resume: *resume, Interrupt: interrupt,
		}, nil
	}
}

func studyFlags(fs *flag.FlagSet) func() (*cellcurtain.Study, error) {
	opts := optionFlags(fs)
	return func() (*cellcurtain.Study, error) {
		o, err := opts()
		if err != nil {
			return nil, err
		}
		verb := "running"
		if o.Resume {
			verb = "resuming"
		}
		fmt.Fprintf(os.Stderr, "curtain: building world and %s campaign...\n", verb)
		s, err := cellcurtain.NewStudy(o)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "curtain: %d experiments from %d clients\n",
			s.ExperimentCount(), s.ClientCount())
		return s, nil
	}
}

// notifyInterrupt converts the first SIGINT/SIGTERM into a graceful
// campaign stop: workers drain their in-flight experiment and the
// checkpoint in ckDir is flushed before the process exits. A second
// signal aborts immediately (the checkpoint loses at most the experiments
// since the last fsync — exactly what -resume recovers from).
func notifyInterrupt(ckDir string) <-chan struct{} {
	interrupt := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintf(os.Stderr,
			"curtain: interrupt — draining in-flight experiments and flushing checkpoint %s (again to abort)\n", ckDir)
		close(interrupt)
		<-sig
		fmt.Fprintln(os.Stderr, "curtain: aborting")
		os.Exit(130)
	}()
	return interrupt
}

func runList() error {
	fmt.Println("paper artifacts (see DESIGN.md for the full index):")
	for _, id := range cellcurtain.ExperimentIDs() {
		fmt.Printf("  %s\n", id)
	}
	fmt.Println("extensions:")
	for _, id := range cellcurtain.ExtensionIDs() {
		fmt.Printf("  %s\n", id)
	}
	return nil
}

func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	build := studyFlags(fs)
	fs.Parse(args)
	s, err := build()
	if err != nil {
		return err
	}
	fmt.Print(s.Report())
	return nil
}

func runExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	id := fs.String("id", "", "experiment id (T1-T5, F2-F14, EGRESS, extensions like AVAIL)")
	build := studyFlags(fs)
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("exp requires -id (try 'curtain list')")
	}
	s, err := build()
	if err != nil {
		return err
	}
	a, err := s.Reproduce(*id)
	if err != nil {
		return err
	}
	fmt.Print(a.Text)
	fmt.Println("\nkey metrics:")
	for _, k := range a.MetricNames() {
		fmt.Printf("  %-32s %.3f\n", k, a.Metrics[k])
	}
	return nil
}

// streamCampaign builds the world and campaign for cfg, honoring its
// worker and checkpoint configuration (unlike the control plane's
// buildCampaign, which strips execution state). Used by the streaming
// subcommands that never materialize a dataset.
func streamCampaign(cfg trace.Config) (*trace.Campaign, error) {
	w, err := sim.New(sim.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if cfg.WorldFactory == nil {
		seed := cfg.Seed
		cfg.WorldFactory = func() (*sim.World, error) { return sim.New(sim.Config{Seed: seed}) }
	}
	return trace.NewCampaign(w, cfg)
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	out := fs.String("out", "dataset.jsonl", "output dataset path")
	formatName := fs.String("format", "", "output codec: jsonl or binary (default jsonl)")
	runStats := fs.Bool("stats", false, "report run time, output bytes/experiment and peak RSS on stderr")
	opts := optionFlags(fs)
	fs.Parse(args)
	f, err := dataset.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	o, err := opts()
	if err != nil {
		return err
	}
	cfg := o.CampaignConfig()
	verb := "running"
	if o.Resume {
		verb = "resuming"
	}
	fmt.Fprintf(os.Stderr, "curtain: building world and %s campaign...\n", verb)
	camp, err := streamCampaign(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "curtain: %d experiments from %d clients\n",
		camp.Total(), camp.ClientCount())

	// Experiments stream straight from the campaign into the encoder as
	// the canonical prefix completes: memory stays bounded by the workers'
	// out-of-order window, not the campaign size. Write-to-temp + fsync +
	// rename means a crash (or an interrupt) mid-write can never leave a
	// torn dataset at -out.
	n := 0
	start := time.Now()
	werr := dataset.WriteFileAtomic(*out, func(w io.Writer) error {
		rw := dataset.NewRecordWriter(w, f)
		var sinkErr error
		record := func(e *dataset.Experiment) {
			if sinkErr == nil {
				if err := rw.Append(e); err != nil {
					sinkErr = err
					return
				}
				n++
			}
		}
		if cfg.CheckpointDir != "" {
			if _, err := camp.RunDurable(record); err != nil {
				return err
			}
		} else {
			camp.Run(record)
		}
		if sinkErr != nil {
			return sinkErr
		}
		return rw.Flush()
	})
	if werr != nil {
		if errors.Is(werr, trace.ErrInterrupted) {
			// The requested stop is not a failure: report how to continue.
			fmt.Fprintf(os.Stderr, "curtain: %v\ncurtain: resume with: curtain simulate -resume %s\n",
				werr, flagEcho(fs))
			return nil
		}
		return werr
	}
	if *runStats && n > 0 {
		// key=value so scripts/bench.sh can parse the line without
		// guessing at prose; the timer covers run + encode, which stream
		// together, and VmHWM is the whole process — world build included.
		elapsed := time.Since(start)
		size := int64(0)
		if info, err := os.Stat(*out); err == nil {
			size = info.Size()
		}
		fmt.Fprintf(os.Stderr,
			"curtain: simulate stats: clients=%d experiments=%d seconds=%.3f exp_per_sec=%.0f bytes=%d bytes_per_exp=%.1f peak_rss_mb=%.1f\n",
			camp.ClientCount(), n, elapsed.Seconds(), float64(n)/elapsed.Seconds(),
			size, float64(size)/float64(n), float64(peakRSSKB())/1024)
	}
	fmt.Fprintf(os.Stderr, "curtain: wrote %d experiments to %s (%s)\n", n, *out, f)
	return nil
}

// flagEcho reconstructs the explicitly-set flags of a parsed FlagSet so
// interrupt messages can print a copy-pasteable resume command.
func flagEcho(fs *flag.FlagSet) string {
	var parts []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "resume" {
			return
		}
		parts = append(parts, fmt.Sprintf("-%s %s", f.Name, f.Value.String()))
	})
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}
