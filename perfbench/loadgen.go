package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cellcurtain/internal/dnswire"
	"cellcurtain/internal/stats"
)

// The resolve generator is open-loop: query i of a phase is due at
// start + i/rate whatever the server does, and its latency is timed from
// that due time, so a stall in the server (or in the generator) delays
// every query behind it and shows in the percentiles. Each query ends in
// exactly one outcome, and the outcomes must add up to the queries due.
const (
	outcomePending uint8 = iota
	outcomeOK
	outcomeWrong
	outcomeServFail
	outcomeTimeout
	outcomeSendErr
)

// queryTimeout is how long after its due time a query may be answered;
// a later answer counts as a timeout.
const queryTimeout = 500 * time.Millisecond

// maxQueriesPerSocket bounds a phase's queries per socket: query i goes
// out on socket i mod sockets with DNS ID i / sockets, so more would
// reuse an ID and a late answer could be matched to the wrong query.
const maxQueriesPerSocket = 1 << 16

// phaseQueries is how many queries a phase of duration d at rate sends
// over sockets: fewer when the sockets' IDs would otherwise wrap, so
// such a phase ends early at the same rate.
func phaseQueries(rate float64, d time.Duration, sockets int) int {
	return min(int(rate*d.Seconds()), maxQueriesPerSocket*sockets)
}

// genSocketBuffer is the generator's per-socket send and receive buffer.
const genSocketBuffer = 4 << 20

// mixQuery is one prepared query: its packet (ID patched at send), the
// question bytes an answer must echo, and the A record it must carry.
type mixQuery struct {
	packet   []byte
	question []byte
	want     netip.Addr
}

// queryMix builds n queries: about 90% repeats drawn from the hot set of
// static names (cache hits once warm) and 10% unique whoami nonces, which
// carry TTL 0 and so always miss to the upstream.
func queryMix(z *zoneData, seed uint64, phase string, n int) ([]mixQuery, error) {
	rng := stats.Stream(seed, stats.Fingerprint(phase))
	out := make([]mixQuery, n)
	for i := range out {
		var name dnswire.Name
		var want netip.Addr
		if rng.Float64() < 0.1 {
			name = dnswire.Name(fmt.Sprintf("n%d-%s-%d.%s", seed, phase, i, z.whoamiZone))
			want = netip.AddrFrom4([4]byte{127, 0, 0, 1}) // the forwarder asks adnsd from loopback
		} else {
			h := z.hot[rng.Intn(len(z.hot))]
			name, want = h.name, h.addr
		}
		pkt, err := dnswire.NewQuery(0, name, dnswire.TypeA).Pack()
		if err != nil {
			return nil, fmt.Errorf("pack %s: %w", name, err)
		}
		out[i] = mixQuery{packet: pkt, question: pkt[12:], want: want}
	}
	return out, nil
}

// phaseResult is one finished generator phase.
type phaseResult struct {
	name   string
	rate   float64
	due    int
	counts [outcomeSendErr + 1]int
	strays int
	// The sender's and receiver's own tallies, kept apart from the
	// per-query outcomes so conservation is checked against them.
	sent, sendErrs, matched, late, unanswered int
	start                                     time.Time // the due time of query 0
	sendEnd                                   time.Time
	// latMs is every query's latency from its due time, in due order;
	// failed queries read queryTimeout (they miss any latency limit).
	latMs []float64
	// lateMs is how late each query was sent relative to its due time.
	lateMs []float64
	// rttMs is send-to-answer time of answered queries, keyed by
	// (source port, DNS ID), for matching with server-side spans.
	rtt map[uint32]float64
}

func (p *phaseResult) failures() int {
	return p.counts[outcomeWrong] + p.counts[outcomeServFail] + p.counts[outcomeTimeout] + p.counts[outcomeSendErr]
}

// conserved checks that every due query was sent or failed to send once,
// that every matched answer has one outcome, and that the outcomes add
// up to the queries due.
func (p *phaseResult) conserved() bool {
	t := 0
	for o := outcomeOK; o <= outcomeSendErr; o++ {
		t += p.counts[o]
	}
	answered := p.counts[outcomeOK] + p.counts[outcomeWrong] + p.counts[outcomeServFail]
	return t == p.due && p.counts[outcomePending] == 0 &&
		p.sent+p.sendErrs == p.due && p.sendErrs == p.counts[outcomeSendErr] &&
		p.matched == answered+p.late && p.late+p.unanswered == p.counts[outcomeTimeout]
}

func (p *phaseResult) pct(q float64) float64 { return quantile(p.latMs, q) }

// answeredRate is answered queries per second of send window.
func (p *phaseResult) answeredRate() float64 {
	return float64(p.counts[outcomeOK]) / p.sendEnd.Sub(p.start).Seconds()
}

// growingBacklog reports whether latency in the phase's last third is
// well above its first third: the server is falling behind.
func (p *phaseResult) growingBacklog() bool {
	n := len(p.latMs)
	if n < 30 {
		return false
	}
	first, last := quantile(p.latMs[:n/3], 0.5), quantile(p.latMs[n-n/3:], 0.5)
	return last > 2*first+1
}

// genSocket is one connected UDP socket with its sender and receiver.
type genSocket struct {
	conn *net.UDPConn
	port uint16
	// slot maps a DNS ID to the outstanding query index (-1 = none).
	slot [1 << 16]atomic.Int32
}

// runPhase sends mix at rate over sockets UDP sockets to target.
// corrupt flips a byte of every answer's address before it is checked.
func runPhase(target netip.AddrPort, name string, mix []mixQuery, rate float64, sockets int, corrupt bool) (*phaseResult, error) {
	n := len(mix)
	if n == 0 || sockets < 1 || (n+sockets-1)/sockets > maxQueriesPerSocket {
		return nil, fmt.Errorf("phase %s: %d queries over %d sockets: want 1 to %d per socket",
			name, n, sockets, maxQueriesPerSocket)
	}
	socks := make([]*genSocket, sockets)
	for s := range socks {
		conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(target))
		if err != nil {
			for _, gs := range socks[:s] {
				_ = gs.conn.Close() // unwinding a failed dial; the dial error is what matters
			}
			return nil, fmt.Errorf("dial %s: %w", target, err)
		}
		// Large socket buffers keep bursts from being dropped at the
		// generator, where they would read as server timeouts.
		_ = conn.SetReadBuffer(genSocketBuffer) // the kernel may cap it; a smaller buffer only risks drops
		_ = conn.SetWriteBuffer(genSocketBuffer)
		gs := &genSocket{conn: conn, port: uint16(conn.LocalAddr().(*net.UDPAddr).Port)}
		for i := range gs.slot {
			gs.slot[i].Store(-1)
		}
		socks[s] = gs
	}
	// Sender-owned and receiver-owned per-query state stay in separate
	// slices so neither goroutine writes what the other does.
	sendErr := make([]bool, n)
	lateNs := make([]int64, n)
	sentNs := make([]int64, n)
	outcome := make([]uint8, n)
	recvNs := make([]int64, n)
	var sentOK, received atomic.Int64

	start := time.Now().Add(5 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * 1e9)) }
	strays := make([]int, sockets)
	var recvWG, sendWG sync.WaitGroup
	for s, gs := range socks {
		recvWG.Add(1)
		go func(s int, gs *genSocket) {
			defer recvWG.Done()
			buf := make([]byte, 4096)
			for {
				m, err := gs.conn.Read(buf)
				if err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						return // the drain deadline: the phase is over
					}
					continue // e.g. ECONNREFUSED from an earlier send: the query times out
				}
				now := time.Now()
				if m < 12 {
					strays[s]++
					continue
				}
				id := binary.BigEndian.Uint16(buf)
				i := int(gs.slot[id].Swap(-1))
				if i < 0 {
					strays[s]++
					continue
				}
				received.Add(1)
				recvNs[i] = now.UnixNano()
				if now.Sub(due(i)) > queryTimeout {
					outcome[i] = outcomeTimeout
					continue
				}
				if corrupt {
					buf[m-1] ^= 0xff
				}
				outcome[i] = classify(buf[:m], id, &mix[i])
			}
		}(s, gs)
		sendWG.Add(1)
		go func(s int, gs *genSocket) {
			defer sendWG.Done()
			for i := s; i < n; {
				now := time.Now()
				if d := due(i).Sub(now); d > 0 {
					pause(d)
					continue
				}
				// Send everything of this socket that is due by now.
				for ; i < n && !due(i).After(now); i += sockets {
					id := uint16(i / sockets)
					pkt := mix[i].packet
					binary.BigEndian.PutUint16(pkt, id)
					gs.slot[id].Store(int32(i))
					t := time.Now()
					sentNs[i] = t.UnixNano()
					lateNs[i] = int64(t.Sub(due(i)))
					if _, err := gs.conn.Write(pkt); err != nil {
						gs.slot[id].Store(-1)
						sendErr[i] = true
						continue
					}
					sentOK.Add(1)
				}
			}
		}(s, gs)
	}
	sendWG.Wait()
	sendEnd := time.Now()
	// Drain: wait for outstanding answers until the last query's timeout.
	drainEnd := due(n - 1).Add(queryTimeout)
	for time.Now().Before(drainEnd) && received.Load() < sentOK.Load() {
		time.Sleep(2 * time.Millisecond)
	}
	for _, gs := range socks {
		_ = gs.conn.SetReadDeadline(time.Unix(1, 0))
	}
	recvWG.Wait()
	for _, gs := range socks {
		_ = gs.conn.Close() // the phase is over; a close error loses nothing
	}

	res := &phaseResult{name: name, rate: rate, due: n, start: start, sendEnd: sendEnd,
		sent: int(sentOK.Load()), matched: int(received.Load()),
		latMs: make([]float64, n), lateMs: make([]float64, n), rtt: make(map[uint32]float64, n)}
	for _, s := range strays {
		res.strays += s
	}
	timeoutMs := float64(queryTimeout) / 1e6
	for i := 0; i < n; i++ {
		o := outcome[i]
		switch {
		case sendErr[i]:
			res.sendErrs++
			o = outcomeSendErr
		case o == outcomePending:
			res.unanswered++
			o = outcomeTimeout
		case o == outcomeTimeout:
			res.late++
		}
		res.counts[o]++
		res.lateMs[i] = float64(lateNs[i]) / 1e6
		res.latMs[i] = timeoutMs
		if o == outcomeOK {
			res.latMs[i] = float64(recvNs[i]-due(i).UnixNano()) / 1e6
			key := uint32(socks[i%sockets].port)<<16 | uint32(uint16(i/sockets))
			res.rtt[key] = float64(recvNs[i]-sentNs[i]) / 1e6
		}
	}
	return res, nil
}

// pause sleeps for d in the kernel. The runtime timer behind time.Sleep
// can overshoot sub-millisecond sleeps by a millisecond on an idle
// process, which would show as generator lateness in every latency.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only wakes the sender early
}

// classify checks an answer against its query: the ID and the echoed
// question must match, and a NOERROR answer must carry exactly the
// expected A record. The common shape — one compressed A record and
// nothing else — is checked on the bytes; anything else is parsed.
func classify(resp []byte, id uint16, q *mixQuery) uint8 {
	qEnd := 12 + len(q.question)
	if len(resp) < qEnd || resp[2]&0x80 == 0 || binary.BigEndian.Uint16(resp) != id {
		return outcomeWrong
	}
	switch dnswire.RCode(resp[3] & 0x0f) {
	case dnswire.RCodeSuccess:
	case dnswire.RCodeServFail:
		return outcomeServFail
	default:
		return outcomeWrong
	}
	if !bytes.Equal(resp[12:qEnd], q.question) {
		return outcomeWrong
	}
	want := q.want.As4()
	if len(resp) == qEnd+16 && binary.BigEndian.Uint16(resp[4:]) == 1 && binary.BigEndian.Uint16(resp[6:]) == 1 &&
		binary.BigEndian.Uint32(resp[8:]) == 0 && binary.BigEndian.Uint16(resp[qEnd:]) == 0xc00c &&
		binary.BigEndian.Uint32(resp[qEnd+2:]) == 0x00010001 && binary.BigEndian.Uint16(resp[qEnd+10:]) == 4 {
		if bytes.Equal(resp[qEnd+12:], want[:]) {
			return outcomeOK
		}
		return outcomeWrong
	}
	m, err := dnswire.Parse(resp)
	if err != nil || len(m.Questions) != 1 || len(m.Answers) != 1 {
		return outcomeWrong
	}
	a, ok := m.Answers[0].Data.(dnswire.A)
	if !ok || a.Addr != q.want || !m.Answers[0].Name.Equal(m.Questions[0].Name) {
		return outcomeWrong
	}
	return outcomeOK
}
