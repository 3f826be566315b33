package main

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cellcurtain/internal/adns"
	"cellcurtain/internal/dnsclient"
	"cellcurtain/internal/dnsserver"
	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/forwarder"
	"cellcurtain/internal/stats"
	"cellcurtain/internal/upstream"
)

// Resolve workload: open-loop UDP from this process into fwdns, which
// forwards misses to adnsd (the whoami zone plus a static record set).
// Traffic runs at two fixed rates, then up a rate ladder to find the
// highest rate the pair sustains.
type resolvePlan struct {
	hotNames     int
	lowRate      float64 // queries per second
	highRate     float64
	fixedPhase   time.Duration
	ladderPhase  time.Duration
	ladderStart  float64 // first ladder rate, when above the fixed rates
	ladderFactor float64
	bisections   int
	setupCycles  int
}

var (
	fullPlan = resolvePlan{hotNames: 256, lowRate: 2000, highRate: 10000,
		fixedPhase: 3 * time.Second, ladderPhase: 1500 * time.Millisecond,
		ladderStart: 40000, ladderFactor: 1.6, bisections: 3, setupCycles: 40}
	tinyPlan = resolvePlan{hotNames: 32, lowRate: 500, highRate: 1000,
		fixedPhase: 500 * time.Millisecond, ladderPhase: 300 * time.Millisecond,
		ladderStart: 2000, ladderFactor: 2, bisections: 0, setupCycles: 2}
)

// setupReserve is the time kept after the ladder for the second batch
// of set-up starts (a start and stop takes about 6 ms on the host
// measured in README.md).
const setupReserve = 500 * time.Millisecond

// A ladder step passes when at most maxFailFrac of its queries fail, its
// p99 (failures counted as missing it) stays under p99LimitMs, and its
// latency does not grow across the step.
const (
	p99LimitMs  = 20.0
	maxFailFrac = 0.01
)

func (p *phaseResult) passes() bool {
	return float64(p.failures()) <= maxFailFrac*float64(p.due) && p.pct(0.99) <= p99LimitMs && !p.growingBacklog()
}

// generatorSockets is the generator's socket count: one per CPU, so
// at most nproc.
func generatorSockets() int { return max(1, runtime.NumCPU()) }

// zoneData is the served zone: the whoami zone and the static hot set.
type zoneData struct {
	whoamiZone dnswire.Name
	hot        []hotName
	records    string // the static set in adnsd -records form
}

type hotName struct {
	name dnswire.Name
	addr netip.Addr
}

func newZone(seed uint64, n int) *zoneData {
	rng := stats.Stream(seed, stats.Fingerprint("zone"))
	z := &zoneData{whoamiZone: "whoami.bench"}
	var b strings.Builder
	for i := 0; i < n; i++ {
		addr := netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))})
		h := hotName{name: dnswire.Name(fmt.Sprintf("h%d.static.bench", i)), addr: addr}
		z.hot = append(z.hot, h)
		fmt.Fprintf(&b, "%s 3600 A %s\n", h.name, addr)
	}
	z.records = b.String()
	return z
}

// freePort returns a loopback port free for both UDP and TCP right now.
func freePort() (uint16, error) {
	for tries := 0; tries < 20; tries++ {
		u, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return 0, fmt.Errorf("free port: %w", err)
		}
		port := u.LocalAddr().(*net.UDPAddr).Port
		t, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		_ = u.Close() // only probing: the port is handed out closed
		if err == nil {
			_ = t.Close()
			return uint16(port), nil
		}
	}
	return 0, fmt.Errorf("free port: no port free for both udp and tcp")
}

// lockedBuffer collects a child's stderr while it runs.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// daemonPair is adnsd and fwdns running as child processes.
type daemonPair struct {
	cmds    []*exec.Cmd
	fwAddr  netip.AddrPort
	stopped bool
}

// startDaemons starts adnsd, waits until it answers, then starts fwdns
// in front of it and returns once fwdns has answered a first query;
// setup is the time from the first exec to that answer. Starting them
// one after the other keeps fwdns from ever forwarding to an adnsd that
// is not listening yet, which would count upstream failures against it.
func startDaemons(o *options, z *zoneData, records string) (*daemonPair, time.Duration, error) {
	adPort, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("adnsd: %w", err)
	}
	fwPort, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("fwdns: %w", err)
	}
	loopback := netip.AddrFrom4([4]byte{127, 0, 0, 1})
	adAddr := netip.AddrPortFrom(loopback, adPort)
	d := &daemonPair{fwAddr: netip.AddrPortFrom(loopback, fwPort)}
	start := time.Now()
	for _, daemon := range []struct {
		addr netip.AddrPort
		args []string
	}{
		{adAddr, []string{"adnsd", "-listen", adAddr.String(), "-zone", string(z.whoamiZone), "-records", records, "-quiet"}},
		{d.fwAddr, []string{"fwdns", "-listen", d.fwAddr.String(), "-upstream", adAddr.String(), "-stats", "0"}},
	} {
		name := daemon.args[0]
		cmd := exec.Command(filepath.Join(o.bin, name), daemon.args[1:]...)
		log := &lockedBuffer{}
		cmd.Stderr = log
		if err := cmd.Start(); err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("start %s: %w", name, err)
		}
		d.cmds = append(d.cmds, cmd)
		if err := waitAnswered(daemon.addr, z, 10*time.Second); err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("%s never answered: %w\n%s", name, err, tail(log.String()))
		}
	}
	return d, time.Since(start), nil
}

// Start-up polling: a probe goes out every probeEvery until one is
// answered; each waits up to probeWait for its answer.
const (
	probeEvery = 100 * time.Microsecond
	probeWait  = 2 * time.Millisecond
)

// waitAnswered polls target with a query for the first hot name until a
// correct answer arrives. A refused probe (nothing listening yet) is
// retried after probeEvery, never at once, so the poller does not spin
// on a CPU the starting daemons need.
func waitAnswered(target netip.AddrPort, z *zoneData, limit time.Duration) error {
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(target))
	if err != nil {
		return fmt.Errorf("dial %s: %w", target, err)
	}
	defer conn.Close()
	pkt, err := dnswire.NewQuery(0, z.hot[0].name, dnswire.TypeA).Pack()
	if err != nil {
		return fmt.Errorf("pack probe: %w", err)
	}
	q := mixQuery{packet: pkt, question: pkt[12:], want: z.hot[0].addr}
	buf := make([]byte, 4096)
	deadline := time.Now().Add(limit)
	for id := uint16(1); time.Now().Before(deadline); id++ {
		pkt[0], pkt[1] = byte(id>>8), byte(id)
		if _, err := conn.Write(pkt); err == nil {
			_ = conn.SetReadDeadline(time.Now().Add(probeWait))
			for {
				n, err := conn.Read(buf)
				if err != nil {
					break // no answer in time, or refused: not listening yet
				}
				if classify(buf[:n], id, &q) == outcomeOK {
					return nil
				}
			}
		}
		pause(probeEvery)
	}
	return fmt.Errorf("no answer from %s within %s", target, limit)
}

// cpuSeconds returns the CPU time both daemons have used so far: the
// run time of every thread, from /proc/<pid>/task/*/schedstat, which
// counts in nanoseconds (utime and stime count in 10 ms ticks).
func (d *daemonPair) cpuSeconds() (float64, error) {
	var ns int64
	for _, c := range d.cmds {
		stats, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", c.Process.Pid))
		if err != nil || len(stats) == 0 {
			return 0, fmt.Errorf("daemon CPU time: no threads of pid %d", c.Process.Pid)
		}
		for _, path := range stats {
			b, err := os.ReadFile(path)
			if err != nil {
				return 0, fmt.Errorf("daemon CPU time: %w", err)
			}
			run, _, _ := strings.Cut(string(b), " ")
			v, err := strconv.ParseInt(run, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("daemon CPU time %s: %w", path, err)
			}
			ns += v
		}
	}
	return float64(ns) / 1e9, nil
}

// fwdnsPeakMB reads the running fwdns's peak resident set (VmHWM).
func (d *daemonPair) fwdnsPeakMB() (float64, error) {
	pid := d.cmds[1].Process.Pid
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("fwdns peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("fwdns peak RSS %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("fwdns peak RSS: no VmHWM in /proc/%d/status", pid)
}

// stop sends SIGTERM (the daemons drain and exit) and waits; a daemon
// still running after ten seconds is killed.
func (d *daemonPair) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	for _, c := range d.cmds {
		_ = c.Process.Signal(syscall.SIGTERM) // an already exited child needs none
	}
	kill := time.NewTimer(10 * time.Second)
	defer kill.Stop()
	for _, c := range d.cmds {
		done := make(chan struct{})
		go func() {
			_ = c.Wait() // exit status of a drained daemon carries nothing we use
			close(done)
		}()
		select {
		case <-done:
		case <-kill.C:
			_ = c.Process.Kill()
			<-done
		}
	}
}

// phaseRunner runs generator phases against one target.
type phaseRunner struct {
	o       *options
	z       *zoneData
	target  netip.AddrPort
	sockets int
	phases  []*phaseResult
}

func (r *phaseRunner) run(name string, rate float64, d time.Duration) (*phaseResult, error) {
	n := phaseQueries(rate, d, r.sockets)
	mix, err := queryMix(r.z, r.o.seed, name, n)
	if err != nil {
		return nil, err
	}
	p, err := runPhase(r.target, name, mix, rate, r.sockets, r.o.corrupt)
	if err != nil {
		return nil, err
	}
	r.phases = append(r.phases, p)
	return p, nil
}

// warm asks for every hot name once so the fixed-rate phases start with
// the hot set cached.
func (r *phaseRunner) warm() (*phaseResult, error) {
	mix := make([]mixQuery, len(r.z.hot))
	for i, h := range r.z.hot {
		pkt, err := dnswire.NewQuery(0, h.name, dnswire.TypeA).Pack()
		if err != nil {
			return nil, fmt.Errorf("pack %s: %w", h.name, err)
		}
		mix[i] = mixQuery{packet: pkt, question: pkt[12:], want: h.addr}
	}
	p, err := runPhase(r.target, "warm", mix, 2000, r.sockets, r.o.corrupt)
	if err != nil {
		return nil, fmt.Errorf("warm: %w", err)
	}
	r.phases = append(r.phases, p)
	return p, nil
}

// checkPhases records the generator's own checks over every phase run:
// outcomes conserve the queries due, no answer is wrong, nothing stray.
func checkPhases(rep *report, phases []*phaseResult) {
	conserved, wrong, strays := true, 0, 0
	var detail []string
	for _, p := range phases {
		conserved = conserved && p.conserved()
		wrong += p.counts[outcomeWrong]
		strays += p.strays
		detail = append(detail, fmt.Sprintf("%s: due %d = ok %d + servfail %d + timeout %d + send errors %d + wrong %d",
			p.name, p.due, p.counts[outcomeOK], p.counts[outcomeServFail], p.counts[outcomeTimeout],
			p.counts[outcomeSendErr], p.counts[outcomeWrong]))
	}
	rep.check("resolve.conservation", conserved, "%s", strings.Join(detail, "; "))
	rep.check("resolve.answers", wrong == 0, "%d wrong answers", wrong)
	rep.check("resolve.strays", strays == 0, "%d unmatched responses", strays)
}

func writeRecords(o *options, z *zoneData) (string, error) {
	path := filepath.Join(o.out, "resolve-records.txt")
	if err := os.WriteFile(path, []byte(z.records), 0o644); err != nil {
		return "", fmt.Errorf("write records: %w", err)
	}
	return path, nil
}

func runResolve(o *options) (*report, error) {
	plan := fullPlan
	if o.tiny {
		plan = tinyPlan
	}
	z := newZone(o.seed, plan.hotNames)
	records, err := writeRecords(o, z)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceResolve(o, plan, z, records)
	}
	start := time.Now()
	deadline := o.deadline(start)
	// Set-up is timed over many starts in two batches, one before the
	// traffic and one after it, so its median spans the whole run rather
	// than one moment of the host.
	setups, err := timeStarts(o, z, records, plan.setupCycles/2)
	if err != nil {
		return nil, err
	}
	d, _, err := startDaemons(o, z, records)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	r := &phaseRunner{o: o, z: z, target: d.fwAddr, sockets: generatorSockets()}
	if _, err := r.warm(); err != nil {
		return nil, err
	}
	low, err := r.run("low", plan.lowRate, plan.fixedPhase)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	high, err := r.run("high", plan.highRate, plan.fixedPhase)
	if err != nil {
		return nil, err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if cpu1 <= cpu0 {
		return nil, fmt.Errorf("daemon CPU time did not grow over the high phase (%.6f s -> %.6f s)", cpu0, cpu1)
	}
	// Memory is read at the fixed high rate: the ladder's overload steps
	// inflate buffers by however far they overshoot.
	fwdnsMB, err := d.fwdnsPeakMB()
	if err != nil {
		return nil, err
	}
	best, steps, err := climbLadder(r, plan, []*phaseResult{low, high}, deadline)
	if err != nil {
		return nil, err
	}
	d.stop()
	more, err := timeStarts(o, z, records, plan.setupCycles-plan.setupCycles/2)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)

	rep := &report{}
	checkPhases(rep, r.phases)
	rep.attempted = int64(low.due + high.due)
	rep.failed = int64(low.failures() + high.failures())
	// The ladder's capacity is reported but not a contract metric: where
	// a step crosses the failure limit depends on when the host stalls,
	// and over ten seeds it spread wider than any bound the benchmark may
	// set. The contract throughput is what the pair serves per CPU-second
	// at the fixed high rate: the offered rate is the generator's, but
	// the CPU the daemons spend on it is the program's.
	capacity := 0.0
	if best != nil {
		capacity = best.answeredRate()
	}
	late := append(append([]float64(nil), low.lateMs...), high.lateMs...)

	rep.set("setup_s", median(setups))
	perCPU := float64(high.counts[outcomeOK]) / (cpu1 - cpu0)
	rep.set("units_per_s", perCPU)
	rep.set("peak_rss_mb", fwdnsMB)
	rep.set("p50_ms", high.pct(0.5))
	rep.note("setup_s", median(setups), "s")
	rep.note("p50_ms.low", low.pct(0.5), "ms")
	rep.note("p99_ms.low", low.pct(0.99), "ms")
	rep.note("p50_ms.high", high.pct(0.5), "ms")
	rep.note("p99_ms.high", high.pct(0.99), "ms")
	rep.note("answered_per_cpu_s.high", perCPU, "1/s")
	rep.note("daemon_cpu_s.high", cpu1-cpu0, "s")
	rep.note("answered_qps.high", high.answeredRate(), "qps")
	rep.note("capacity_qps", capacity, "qps")
	rep.note("peak_rss_mb.fwdns_high", fwdnsMB, "MB")
	rep.note("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.note("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	rep.note("queries.low", float64(low.due), "count")
	rep.note("queries.high", float64(high.due), "count")
	for _, s := range steps {
		rep.note(fmt.Sprintf("ladder.%s", s.name), s.pct(0.99), "ms_p99")
	}
	return rep, nil
}

// timeStarts starts and stops the daemon pair n times and returns each
// start's set-up time in seconds.
func timeStarts(o *options, z *zoneData, records string, n int) ([]float64, error) {
	var setups []float64
	for k := 0; k < n; k++ {
		d, setup, err := startDaemons(o, z, records)
		if err != nil {
			return nil, err
		}
		d.stop()
		setups = append(setups, setup.Seconds())
	}
	return setups, nil
}

// climbLadder searches for the highest rate the pair sustains. The
// fixed phases seed it: the highest of them that passed is the first
// "pass", a failed one the first "fail". The rate then starts at
// plan.ladderStart and grows by plan.ladderFactor until a step fails,
// and bisects between the last passing and the first failing rate. A
// step that misses the limits is run once more and fails only if it
// misses them again, so one host stall cannot cap the ladder. The
// search stops early when the next step would end past deadline. best
// is the fastest passing phase (nil if none passed).
func climbLadder(r *phaseRunner, plan resolvePlan, fixed []*phaseResult, deadline time.Time) (best *phaseResult, steps []*phaseResult, err error) {
	// The last step must leave time for the second batch of starts.
	fits := func() bool { return time.Now().Add(plan.ladderPhase + queryTimeout + setupReserve).Before(deadline) }
	fail := 0.0
	for _, p := range fixed {
		if fail > 0 {
			break
		}
		if p.passes() {
			best = p
		} else {
			fail = p.rate
		}
	}
	step := func(rate float64) error {
		for try := 0; try < 2 && fits(); try++ {
			p, err := r.run(fmt.Sprintf("q%.0f-%d", rate, try), rate, plan.ladderPhase)
			if err != nil {
				return err
			}
			steps = append(steps, p)
			if p.passes() {
				best = p
				return nil
			}
		}
		fail = rate
		return nil
	}
	for fail == 0 && best != nil && fits() {
		if err := step(max(plan.ladderStart, best.rate*plan.ladderFactor)); err != nil {
			return nil, nil, err
		}
	}
	for b := 0; b < plan.bisections && fail > 0 && best != nil && fits(); b++ {
		if err := step((best.rate + fail) / 2); err != nil {
			return nil, nil, err
		}
	}
	return best, steps, nil
}

// Span names of the traced serving path.
const (
	spanForward  = "forwarder.serve"
	spanUpstream = "upstream.query"
	spanAnswer   = "adns.answer"
)

// inProcess is fwdns in front of adnsd rebuilt in this process from the
// functions their mains call, with every layer boundary traced.
type inProcess struct {
	ft      *flatTracer
	ad, fw  *dnsserver.ShardGroup
	fwd     *forwarder.Forwarder
	pool    *upstream.Pool
	fwAddr  netip.AddrPort
	serving sync.WaitGroup
}

func queryKey(remote netip.AddrPort, id uint16) uint64 {
	return uint64(remote.Port())<<16 | uint64(id)
}

func nameRef(n dnswire.Name) uint64 { return stats.Fingerprint(strings.ToLower(string(n))) }

func startInProcess(z *zoneData, recordsText string, ft *flatTracer) (*inProcess, error) {
	adPort, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("in-process adnsd: %w", err)
	}
	fwPort, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("in-process fwdns: %w", err)
	}
	ip := &inProcess{ft: ft, fwAddr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), fwPort)}

	// adnsd: the whoami zone merged over the static records.
	whoami := adns.New(nil, nil)
	whoami.ZoneName = z.whoamiZone
	rrs, err := dnswire.ParseRecords(recordsText)
	if err != nil {
		return nil, fmt.Errorf("parse records: %w", err)
	}
	merged := dnsserver.Merge(z.whoamiZone, dnsserver.HandlerFunc(func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		return whoami.Answer(remote.Addr(), q)
	}), dnsserver.NewStatic(rrs))
	answer := dnsserver.HandlerFunc(func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		start := ft.now()
		resp := merged.ServeDNS(remote, q)
		ft.add(spanAnswer, queryKey(remote, q.Header.ID), 0, start, ft.now())
		return resp
	})
	ip.ad = dnsserver.NewShardGroup(1, func(int) *dnsserver.Server { return &dnsserver.Server{Handler: answer} })

	// fwdns: one UDP client per upstream port, the health-aware pool and
	// the caching forwarder, with fwdns's default flag values.
	client := dnsclient.New(&dnsclient.UDPTransport{Timeout: 2 * time.Second, Port: adPort}, nil)
	client.SetTCPFallback(&dnsclient.TCPTransport{Timeout: 5 * time.Second, Port: adPort})
	client.Retries = 1
	query := func(addr netip.AddrPort, name dnswire.Name, t dnswire.Type) (*dnsclient.Result, error) {
		start := ft.now()
		res, err := client.Query(addr.Addr(), name, t)
		ft.add(spanUpstream, 0, nameRef(name), start, ft.now())
		return res, err
	}
	ups := []netip.AddrPort{netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), adPort)}
	ip.pool, err = upstream.New(query, ups, upstream.Config{FailureThreshold: 3})
	if err != nil {
		return nil, fmt.Errorf("upstream pool: %w", err)
	}
	ip.fwd = forwarder.NewPooled(ip.pool)
	ip.fwd.MaxTTL = time.Hour
	ip.fwd.MaxStale = time.Hour
	ip.fwd.MaxEntries = 65536
	serve := dnsserver.HandlerFunc(func(remote netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		start := ft.now()
		resp := ip.fwd.ServeDNS(remote, q)
		var ref uint64
		if len(q.Questions) == 1 {
			ref = nameRef(q.Questions[0].Name)
		}
		ft.add(spanForward, queryKey(remote, q.Header.ID), ref, start, ft.now())
		return resp
	})
	ip.fw = dnsserver.NewShardGroup(1, func(int) *dnsserver.Server { return &dnsserver.Server{Handler: serve} })

	errs := make(chan error, 2)
	for _, g := range []struct {
		group *dnsserver.ShardGroup
		addr  string
	}{{ip.ad, fmt.Sprintf("127.0.0.1:%d", adPort)}, {ip.fw, ip.fwAddr.String()}} {
		ip.serving.Add(1)
		go func(group *dnsserver.ShardGroup, addr string) {
			defer ip.serving.Done()
			if err := group.ListenAndServe(addr); err != nil {
				errs <- err
			}
		}(g.group, g.addr)
	}
	if err := waitAnswered(ip.fwAddr, z, 10*time.Second); err != nil {
		ip.stop()
		select {
		case serr := <-errs:
			return nil, fmt.Errorf("in-process servers: %w", serr)
		default:
			return nil, fmt.Errorf("in-process servers: %w", err)
		}
	}
	return ip, nil
}

// stop drains both servers in fwdns's order and waits for them to exit.
func (ip *inProcess) stop() {
	ip.fw.Drain(5 * time.Second)
	ip.fwd.Wait()
	ip.pool.Close()
	ip.ad.Drain(5 * time.Second)
	ip.serving.Wait()
}

// runFixedPhases warms the cache and runs the low and high phases.
func runFixedPhases(r *phaseRunner, plan resolvePlan) (low, high *phaseResult, err error) {
	if _, err := r.warm(); err != nil {
		return nil, nil, err
	}
	if low, err = r.run("low", plan.lowRate, plan.fixedPhase); err != nil {
		return nil, nil, err
	}
	if high, err = r.run("high", plan.highRate, plan.fixedPhase); err != nil {
		return nil, nil, err
	}
	return low, high, nil
}

func traceResolve(o *options, plan resolvePlan, z *zoneData, records string) (*report, error) {
	rep := &report{}
	d, _, err := startDaemons(o, z, records)
	if err != nil {
		return nil, err
	}
	ref := &phaseRunner{o: o, z: z, target: d.fwAddr, sockets: generatorSockets()}
	_, refHigh, err := runFixedPhases(ref, plan)
	d.stop()
	if err != nil {
		return nil, err
	}

	ft := &flatTracer{epoch: time.Now()}
	ip, err := startInProcess(z, z.records, ft)
	if err != nil {
		return nil, err
	}
	r := &phaseRunner{o: o, z: z, target: ip.fwAddr, sockets: generatorSockets()}
	if _, err := r.warm(); err != nil {
		ip.stop()
		return nil, err
	}
	fc0, pc0 := ip.fwd.Counters(), ip.pool.Counters()
	served0 := []uint64{ip.fw.Served(), ip.ad.Served()}
	low, err := r.run("low", plan.lowRate, plan.fixedPhase)
	if err == nil {
		_, err = r.run("high", plan.highRate, plan.fixedPhase)
	}
	ip.stop()
	if err != nil {
		return nil, err
	}
	high := r.phases[len(r.phases)-1]
	checkPhases(rep, append(append([]*phaseResult(nil), ref.phases...), r.phases...))
	rep.attempted = int64(low.due + high.due)
	rep.failed = int64(low.failures() + high.failures())

	fc, pc := ip.fwd.Counters(), ip.pool.Counters()
	hits, misses := fc.Hits-fc0.Hits, fc.Misses-fc0.Misses
	rep.set("forwarder.hit_frac", ratio(float64(hits), float64(hits+misses)))
	rep.set("forwarder.coalesced", float64(fc.Coalesced-fc0.Coalesced))
	attempts := (pc.Queries - pc0.Queries) + (pc.Hedges - pc0.Hedges) + (pc.Retries - pc0.Retries)
	rep.set("upstream.attempts_per_miss", ratio(float64(attempts), float64(misses)))
	rep.set("dnsserver.served.fwdns", float64(ip.fw.Served()-served0[0]))
	rep.set("dnsserver.served.adnsd", float64(ip.ad.Served()-served0[1]))
	sf, drops := ip.fw.OverloadStats()
	rep.set("dnsserver.overload_servfails.fwdns", float64(sf))
	rep.set("dnsserver.drops.fwdns", float64(drops))
	sf, drops = ip.ad.OverloadStats()
	rep.set("dnsserver.overload_servfails.adnsd", float64(sf))
	rep.set("dnsserver.drops.adnsd", float64(drops))

	// Only spans of the measured phases count; the warm-up is set-up.
	from := int64(low.start.Sub(ft.epoch))
	var spans []span
	for _, s := range ft.spans {
		if s.start >= from {
			spans = append(spans, s)
		}
	}
	fwdSelf, outside := servingSplit(spans, []*phaseResult{low, high}, ft.epoch)
	rep.set("forwarder.self_us.p50", quantile(fwdSelf, 0.5))
	rep.set("forwarder.self_us.p99", quantile(fwdSelf, 0.99))
	up := durations(spans, spanUpstream)
	rep.set("upstream.query_us.p50", quantile(up, 0.5))
	rep.set("upstream.query_us.p99", quantile(up, 0.99))
	rep.set("adns.answer_us", quantile(durations(spans, spanAnswer), 0.5))
	rep.set("dnsserver.outside_us.p50", quantile(outside, 0.5))
	rep.set("dnsserver.outside_us.p99", quantile(outside, 0.99))
	late := append(append([]float64(nil), low.lateMs...), high.lateMs...)
	rep.set("loadgen.late_p99_ms", quantile(late, 0.99))
	rep.set("trace.overhead_ratio", ratio(high.pct(0.5), refHigh.pct(0.5)))

	rep.note("untraced p50_ms.high", refHigh.pct(0.5), "ms")
	rep.note("traced p50_ms.high", high.pct(0.5), "ms")
	rep.note("traced p99_ms.high", high.pct(0.99), "ms")
	rep.spans = filepath.Join(o.out, "spans-resolve.tsv")
	if err := writeSpans(rep.spans, ft.spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// servingSplit derives, per answered query, the forwarder's self time
// (its handler span minus the part upstream queries for the same name
// cover) and the time spent outside the handler: the client's round trip
// minus the handler span of the same (source port, DNS ID).
func servingSplit(spans []span, phases []*phaseResult, epoch time.Time) (fwdSelf, outside []float64) {
	upByName := map[uint64][]span{}
	for _, s := range spans {
		if s.name == spanUpstream {
			upByName[s.ref] = append(upByName[s.ref], s)
		}
	}
	for _, s := range spans {
		if s.name != spanForward {
			continue
		}
		covered := coveredNs(upByName[s.ref], s.start, s.end)
		fwdSelf = append(fwdSelf, float64(s.dur()-covered)/1e3)
	}
	// Within one phase a (port, ID) key names one query: every socket is
	// fresh and runPhase refuses more than maxQueriesPerSocket per socket.
	for _, p := range phases {
		lo, hi := int64(p.start.Sub(epoch)), int64(p.sendEnd.Sub(epoch)+queryTimeout)
		handler := map[uint64]int64{}
		for _, s := range spans {
			if s.name == spanForward && s.start >= lo && s.start <= hi {
				handler[s.id] = s.dur()
			}
		}
		keys := make([]uint32, 0, len(p.rtt))
		for k := range p.rtt {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			if h, ok := handler[uint64(k)]; ok {
				outside = append(outside, p.rtt[k]*1e3-float64(h)/1e3)
			}
		}
	}
	return fwdSelf, outside
}

// coveredNs returns how much of [start, end] the union of spans covers.
func coveredNs(spans []span, start, end int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.start, start), min(s.end, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach int64
	reach = start
	for _, v := range ivs {
		a := max(v.a, reach)
		if v.b > a {
			total += v.b - a
			reach = v.b
		}
	}
	return total
}
