package dataset

// curtainbin — the compact binary dataset codec (DESIGN.md §15).
//
// A curtainbin stream is an 8-byte file magic followed by self-delimiting
// segments. Each segment carries a string table (carrier, resolver-kind,
// domain and outcome strings are interned per segment) and a batch of
// length-prefixed records with varint/delta-encoded fields; the payload
// is optionally flate-compressed. Segments are the torn-tail unit: a
// hard kill mid-append leaves at most one incomplete trailing segment,
// which resume drops exactly like a torn JSONL line.
//
// The per-record encode/decode primitives are //lint:hotpath and proven
// zero-alloc by TestHotPathAllocs: every byte goes through caller-owned
// buffers, every string through the segment table.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"time"
)

// Format selects a dataset serialization codec.
type Format string

// The two codecs: JSONL is the debug/interchange format, binary the
// compact campaign format. Readers auto-detect by magic bytes, so the
// format only needs choosing on the write side.
const (
	FormatJSONL  Format = "jsonl"
	FormatBinary Format = "binary"
)

// ParseFormat validates a -format flag value ("" selects JSONL).
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case "", FormatJSONL:
		return FormatJSONL, nil
	case FormatBinary:
		return FormatBinary, nil
	}
	return "", fmt.Errorf("dataset: unknown format %q (want %s or %s)", s, FormatJSONL, FormatBinary)
}

// Magic identifies a curtainbin stream; the final byte is the codec
// version.
var binMagic = [8]byte{'C', 'U', 'R', 'T', 'B', 'I', 'N', 1}

// segMagic opens every segment header — a resync marker that makes a
// mid-file corruption diagnosable rather than silently misparsed.
var segMagic = [4]byte{'C', 'B', 'S', 'G'}

const (
	// segFlagFlate marks a flate-compressed segment payload.
	segFlagFlate = 1 << 0

	// DefaultSegmentRecords is the records-per-segment cut cadence of a
	// standalone BinaryWriter (checkpoints cut on their fsync cadence
	// instead, so a kill never loses a synced record).
	DefaultSegmentRecords = 512

	// maxSegmentPayload bounds a segment's declared payload so a corrupt
	// header cannot demand an absurd allocation.
	maxSegmentPayload = 1 << 30
)

// errCorrupt is the hot-path decode failure sentinel; the segment reader
// wraps it with file context.
var errCorrupt = errors.New("dataset: corrupt curtainbin record")

// stringTable interns the strings of one segment being encoded. Index 0
// is always the empty string so absent fields cost one byte.
type stringTable struct {
	idx   map[string]uint32
	strs  []string
	bytes int
}

func newStringTable() *stringTable {
	t := &stringTable{idx: make(map[string]uint32)}
	t.idx[""] = 0
	t.strs = append(t.strs, "")
	return t
}

func (t *stringTable) reset() {
	for s := range t.idx {
		delete(t.idx, s)
	}
	t.idx[""] = 0
	t.strs = t.strs[:0]
	t.strs = append(t.strs, "")
	t.bytes = 0
}

// ref returns the table index for s, interning it on first use.
//
//lint:hotpath
func (t *stringTable) ref(s string) uint32 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := uint32(len(t.strs))
	t.idx[s] = i
	t.strs = append(t.strs, s)
	t.bytes += len(s)
	return i
}

// binEncoder encodes records into a caller-owned buffer with per-segment
// delta state. rec is the per-record scratch body; buf accumulates the
// length-prefixed records of the open segment.
type binEncoder struct {
	buf      []byte
	rec      []byte
	tbl      *stringTable
	prevSeq  int64
	prevTime int64
	count    int
}

func newBinEncoder() *binEncoder {
	return &binEncoder{tbl: newStringTable()}
}

func (enc *binEncoder) reset() {
	enc.buf = enc.buf[:0]
	enc.rec = enc.rec[:0]
	enc.tbl.reset()
	enc.prevSeq = 0
	enc.prevTime = 0
	enc.count = 0
}

// zigzag folds a signed value into the uvarint space.
//
//lint:hotpath
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag is the inverse of zigzag.
//
//lint:hotpath
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendAddr encodes a netip.Addr as a 1-byte length (0 = invalid, 4 or
// 16) plus the raw address bytes — exact, including IPv4-in-IPv6 forms.
//
//lint:hotpath
func appendAddr(buf []byte, a netip.Addr) []byte {
	switch {
	case !a.IsValid():
		buf = append(buf, 0)
	case a.Is4():
		b := a.As4()
		buf = append(buf, 4)
		buf = append(buf, b[0], b[1], b[2], b[3])
	default:
		b := a.As16()
		buf = append(buf, 16)
		buf = append(buf, b[:]...)
	}
	return buf
}

// appendExperiment appends e's record body to enc.rec, then the
// length-prefixed body to enc.buf. Seq and Time are delta-encoded
// against the previous record of the segment.
//
//lint:hotpath
func (enc *binEncoder) appendExperiment(e *Experiment) {
	rec := enc.rec[:0]
	rec = binary.AppendUvarint(rec, zigzag(int64(e.Seq)-enc.prevSeq))
	enc.prevSeq = int64(e.Seq)
	// Seconds + nanos rather than UnixNano: the zero time.Time (and any
	// other instant outside the UnixNano range) must round-trip exactly.
	sec := e.Time.Unix()
	rec = binary.AppendUvarint(rec, zigzag(sec-enc.prevTime))
	enc.prevTime = sec
	rec = binary.AppendUvarint(rec, uint64(e.Time.Nanosecond()))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(e.ClientID)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(e.Carrier)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(e.Country)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(e.Radio)))
	rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(e.Lat))
	rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(e.Lon))
	rec = appendAddr(rec, e.NATAddr)
	rec = appendAddr(rec, e.Configured)
	var flags byte
	if e.TraceFailed {
		flags |= 1
	}
	if e.Failed {
		flags |= 2
	}
	rec = append(rec, flags)
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(e.FailReason)))

	rec = binary.AppendUvarint(rec, uint64(len(e.Resolutions)))
	for i := range e.Resolutions {
		rec = enc.appendResolution(rec, &e.Resolutions[i])
	}
	rec = binary.AppendUvarint(rec, uint64(len(e.Discoveries)))
	for i := range e.Discoveries {
		rec = enc.appendDiscovery(rec, &e.Discoveries[i])
	}
	rec = binary.AppendUvarint(rec, uint64(len(e.ResolverProbes)))
	for i := range e.ResolverProbes {
		rec = enc.appendResolverProbe(rec, &e.ResolverProbes[i])
	}
	rec = binary.AppendUvarint(rec, uint64(len(e.ReplicaProbes)))
	for i := range e.ReplicaProbes {
		rec = enc.appendReplicaProbe(rec, &e.ReplicaProbes[i])
	}
	rec = binary.AppendUvarint(rec, uint64(len(e.EgressTrace)))
	for _, a := range e.EgressTrace {
		rec = appendAddr(rec, a)
	}
	enc.rec = rec

	enc.buf = binary.AppendUvarint(enc.buf, uint64(len(rec)))
	enc.buf = append(enc.buf, rec...)
	enc.count++
}

//lint:hotpath
func (enc *binEncoder) appendResolution(rec []byte, r *Resolution) []byte {
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(r.Domain)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(string(r.Kind))))
	rec = appendAddr(rec, r.Server)
	rec = binary.AppendUvarint(rec, zigzag(int64(r.RTT1)))
	rec = binary.AppendUvarint(rec, zigzag(int64(r.RTT2)))
	rec = binary.AppendUvarint(rec, zigzag(int64(r.Cost)))
	var flags byte
	if r.OK {
		flags |= 1
	}
	if r.OK2 {
		flags |= 2
	}
	if r.FailedOver {
		flags |= 4
	}
	rec = append(rec, flags)
	rec = binary.AppendUvarint(rec, uint64(len(r.Answers)))
	for _, a := range r.Answers {
		rec = appendAddr(rec, a)
	}
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(r.CNAME)))
	rec = binary.AppendUvarint(rec, uint64(r.TTL))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(r.Radio)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(r.Outcome)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(r.Outcome2)))
	rec = binary.AppendUvarint(rec, uint64(r.Attempts))
	return rec
}

//lint:hotpath
func (enc *binEncoder) appendDiscovery(rec []byte, d *Discovery) []byte {
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(string(d.Kind))))
	rec = appendAddr(rec, d.Queried)
	rec = appendAddr(rec, d.External)
	var flags byte
	if d.OK {
		flags |= 1
	}
	rec = append(rec, flags)
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(d.Outcome)))
	return rec
}

//lint:hotpath
func (enc *binEncoder) appendResolverProbe(rec []byte, p *ResolverProbe) []byte {
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(string(p.Kind))))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(p.Which)))
	rec = appendAddr(rec, p.Target)
	rec = binary.AppendUvarint(rec, zigzag(int64(p.RTT)))
	var flags byte
	if p.OK {
		flags |= 1
	}
	rec = append(rec, flags)
	return rec
}

//lint:hotpath
func (enc *binEncoder) appendReplicaProbe(rec []byte, p *ReplicaProbe) []byte {
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(p.Domain)))
	rec = binary.AppendUvarint(rec, uint64(enc.tbl.ref(string(p.Kind))))
	rec = appendAddr(rec, p.Replica)
	rec = binary.AppendUvarint(rec, zigzag(int64(p.PingRTT)))
	rec = binary.AppendUvarint(rec, zigzag(int64(p.TTFB)))
	var flags byte
	if p.PingOK {
		flags |= 1
	}
	if p.HTTPOK {
		flags |= 2
	}
	rec = append(rec, flags)
	return rec
}

// binDecoder decodes the record bytes of one segment. The hot-path
// methods never allocate: strings come interned from the segment table,
// and record slices grow through the caller's *Experiment, whose
// capacity is reused across records when the caller recycles it.
type binDecoder struct {
	buf      []byte
	pos      int
	tbl      []string
	prevSeq  int64
	prevTime int64
	bad      bool
}

//lint:hotpath
func (d *binDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.pos += n
	return v
}

//lint:hotpath
func (d *binDecoder) varint() int64 { return unzigzag(d.uvarint()) }

// count decodes a collection length and bounds it by the remaining
// payload: every element consumes at least one byte, so a larger count
// is corrupt regardless of element type. The uint64 comparison also
// rejects counts that would overflow int, which would otherwise turn
// into negative slice bounds downstream.
//
//lint:hotpath
func (d *binDecoder) count() int {
	n := d.uvarint()
	if d.bad || n > uint64(len(d.buf)-d.pos) {
		d.bad = true
		return 0
	}
	return int(n)
}

//lint:hotpath
func (d *binDecoder) str() string {
	i := d.uvarint()
	if i >= uint64(len(d.tbl)) {
		d.bad = true
		return ""
	}
	return d.tbl[i]
}

//lint:hotpath
func (d *binDecoder) byte() byte {
	if d.pos >= len(d.buf) {
		d.bad = true
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

//lint:hotpath
func (d *binDecoder) float64() float64 {
	if d.pos+8 > len(d.buf) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return math.Float64frombits(v)
}

//lint:hotpath
func (d *binDecoder) addr() netip.Addr {
	n := int(d.byte())
	var a netip.Addr
	switch n {
	case 0:
		return a
	case 4:
		if d.pos+4 > len(d.buf) {
			d.bad = true
			return a
		}
		var b4 [4]byte
		copy(b4[:], d.buf[d.pos:])
		d.pos += 4
		return netip.AddrFrom4(b4)
	case 16:
		if d.pos+16 > len(d.buf) {
			d.bad = true
			return a
		}
		var b16 [16]byte
		copy(b16[:], d.buf[d.pos:])
		d.pos += 16
		return netip.AddrFrom16(b16)
	default:
		d.bad = true
		return a
	}
}

// appendAddrs decodes n addresses into dst, reusing its capacity.
//
//lint:hotpath
func (d *binDecoder) appendAddrs(dst []netip.Addr, n int) []netip.Addr {
	dst = dst[:0]
	for i := 0; i < n && !d.bad; i++ {
		dst = append(dst, d.addr())
	}
	return dst
}

// decodeExperiment decodes one length-prefixed record into e, reusing
// e's slice capacity. It reports false on corrupt input.
//
//lint:hotpath
func (d *binDecoder) decodeExperiment(e *Experiment) bool {
	bodyLen := d.uvarint()
	if d.bad || bodyLen > uint64(len(d.buf)-d.pos) {
		d.bad = true
		return false
	}
	end := d.pos + int(bodyLen)

	e.Seq = int(d.prevSeq + d.varint())
	d.prevSeq = int64(e.Seq)
	sec := d.prevTime + d.varint()
	d.prevTime = sec
	e.Time = time.Unix(sec, int64(d.uvarint())).UTC()
	e.ClientID = d.str()
	e.Carrier = d.str()
	e.Country = d.str()
	e.Radio = d.str()
	e.Lat = d.float64()
	e.Lon = d.float64()
	e.NATAddr = d.addr()
	e.Configured = d.addr()
	flags := d.byte()
	e.TraceFailed = flags&1 != 0
	e.Failed = flags&2 != 0
	e.FailReason = d.str()

	n := d.count()
	if d.bad {
		return false
	}
	e.Resolutions = growResolutions(e.Resolutions, n)
	for i := 0; i < n && !d.bad; i++ {
		d.decodeResolution(&e.Resolutions[i])
	}
	n = d.count()
	if d.bad {
		return false
	}
	e.Discoveries = growDiscoveries(e.Discoveries, n)
	for i := 0; i < n && !d.bad; i++ {
		d.decodeDiscovery(&e.Discoveries[i])
	}
	n = d.count()
	if d.bad {
		return false
	}
	e.ResolverProbes = growResolverProbes(e.ResolverProbes, n)
	for i := 0; i < n && !d.bad; i++ {
		d.decodeResolverProbe(&e.ResolverProbes[i])
	}
	n = d.count()
	if d.bad {
		return false
	}
	e.ReplicaProbes = growReplicaProbes(e.ReplicaProbes, n)
	for i := 0; i < n && !d.bad; i++ {
		d.decodeReplicaProbe(&e.ReplicaProbes[i])
	}
	n = d.count()
	if d.bad {
		return false
	}
	e.EgressTrace = d.appendAddrs(e.EgressTrace, n)
	if len(e.EgressTrace) == 0 {
		e.EgressTrace = nil
	}

	if d.bad || d.pos != end {
		d.bad = true
		return false
	}
	return true
}

//lint:hotpath
func (d *binDecoder) decodeResolution(r *Resolution) {
	answers := r.Answers[:0]
	*r = Resolution{}
	r.Domain = d.str()
	r.Kind = ResolverKind(d.str())
	r.Server = d.addr()
	r.RTT1 = time.Duration(d.varint())
	r.RTT2 = time.Duration(d.varint())
	r.Cost = time.Duration(d.varint())
	flags := d.byte()
	r.OK = flags&1 != 0
	r.OK2 = flags&2 != 0
	r.FailedOver = flags&4 != 0
	n := d.count()
	if d.bad {
		return
	}
	r.Answers = d.appendAddrs(answers, n)
	if len(r.Answers) == 0 {
		r.Answers = nil
	}
	r.CNAME = d.str()
	r.TTL = uint32(d.uvarint())
	r.Radio = d.str()
	r.Outcome = d.str()
	r.Outcome2 = d.str()
	r.Attempts = int(d.uvarint())
}

//lint:hotpath
func (d *binDecoder) decodeDiscovery(dc *Discovery) {
	*dc = Discovery{}
	dc.Kind = ResolverKind(d.str())
	dc.Queried = d.addr()
	dc.External = d.addr()
	dc.OK = d.byte()&1 != 0
	dc.Outcome = d.str()
}

//lint:hotpath
func (d *binDecoder) decodeResolverProbe(p *ResolverProbe) {
	*p = ResolverProbe{}
	p.Kind = ResolverKind(d.str())
	p.Which = d.str()
	p.Target = d.addr()
	p.RTT = time.Duration(d.varint())
	p.OK = d.byte()&1 != 0
}

//lint:hotpath
func (d *binDecoder) decodeReplicaProbe(p *ReplicaProbe) {
	*p = ReplicaProbe{}
	p.Domain = d.str()
	p.Kind = ResolverKind(d.str())
	p.Replica = d.addr()
	p.PingRTT = time.Duration(d.varint())
	p.TTFB = time.Duration(d.varint())
	flags := d.byte()
	p.PingOK = flags&1 != 0
	p.HTTPOK = flags&2 != 0
}

// growResolutions resizes s to n elements, reusing capacity (and each
// element's nested slice capacity) when possible.
//
//lint:hotpath
func growResolutions(s []Resolution, n int) []Resolution {
	if n <= cap(s) {
		return s[:n]
	}
	s = s[:cap(s)]
	for len(s) < n {
		s = append(s, Resolution{})
	}
	return s
}

//lint:hotpath
func growDiscoveries(s []Discovery, n int) []Discovery {
	if n <= cap(s) {
		return s[:n]
	}
	s = s[:cap(s)]
	for len(s) < n {
		s = append(s, Discovery{})
	}
	return s
}

//lint:hotpath
func growResolverProbes(s []ResolverProbe, n int) []ResolverProbe {
	if n <= cap(s) {
		return s[:n]
	}
	s = s[:cap(s)]
	for len(s) < n {
		s = append(s, ResolverProbe{})
	}
	return s
}

//lint:hotpath
func growReplicaProbes(s []ReplicaProbe, n int) []ReplicaProbe {
	if n <= cap(s) {
		return s[:n]
	}
	s = s[:cap(s)]
	for len(s) < n {
		s = append(s, ReplicaProbe{})
	}
	return s
}

// BinaryWriter streams experiments as a curtainbin file: records
// accumulate into the open segment, which is cut at SegmentRecords
// appends or on Flush. The writer never buffers more than one segment.
type BinaryWriter struct {
	w io.Writer
	// Compress flate-compresses each segment payload (default on via
	// NewBinaryWriter).
	Compress bool
	// SegmentRecords is the automatic segment cut cadence.
	SegmentRecords int

	enc           *binEncoder
	headerWritten bool
	scratch       []byte
	fw            *flate.Writer
	written       int64
}

// NewBinaryWriter returns a writer that emits the file magic before its
// first segment.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: w, Compress: true, SegmentRecords: DefaultSegmentRecords, enc: newBinEncoder()}
}

// NewBinaryAppender returns a writer that extends an existing curtainbin
// stream: no file magic is emitted (it is already on disk).
func NewBinaryAppender(w io.Writer) *BinaryWriter {
	bw := NewBinaryWriter(w)
	bw.headerWritten = true
	return bw
}

// Append encodes one experiment into the open segment.
func (b *BinaryWriter) Append(e *Experiment) error {
	b.enc.appendExperiment(e)
	if b.enc.count >= b.SegmentRecords {
		return b.Flush()
	}
	return nil
}

// BytesWritten reports how many bytes reached the underlying writer.
func (b *BinaryWriter) BytesWritten() int64 { return b.written }

// Flush cuts the open segment (writing the file magic first if needed)
// and resets the encoder. Flushing with no pending records writes the
// magic alone, so a fresh file is identifiable even before data arrives.
func (b *BinaryWriter) Flush() error {
	if !b.headerWritten {
		n, err := b.w.Write(binMagic[:])
		b.written += int64(n)
		if err != nil {
			return fmt.Errorf("dataset: curtainbin header: %w", err)
		}
		b.headerWritten = true
	}
	if b.enc.count == 0 {
		return nil
	}
	payload := b.scratch[:0]
	payload = binary.AppendUvarint(payload, uint64(len(b.enc.tbl.strs)))
	for _, s := range b.enc.tbl.strs {
		payload = binary.AppendUvarint(payload, uint64(len(s)))
		payload = append(payload, s...)
	}
	payload = append(payload, b.enc.buf...)
	b.scratch = payload

	stored := payload
	var flags byte
	if b.Compress {
		var cb bytes.Buffer
		cb.Grow(len(payload) / 2)
		if b.fw == nil {
			fw, err := flate.NewWriter(&cb, flate.BestSpeed)
			if err != nil {
				return fmt.Errorf("dataset: curtainbin flate: %w", err)
			}
			b.fw = fw
		} else {
			b.fw.Reset(&cb)
		}
		if _, err := b.fw.Write(payload); err != nil {
			return fmt.Errorf("dataset: curtainbin compress: %w", err)
		}
		if err := b.fw.Close(); err != nil {
			return fmt.Errorf("dataset: curtainbin compress: %w", err)
		}
		stored = cb.Bytes()
		flags |= segFlagFlate
	}

	var hdr []byte
	hdr = append(hdr, segMagic[:]...)
	hdr = append(hdr, flags)
	hdr = binary.AppendUvarint(hdr, uint64(b.enc.count))
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	hdr = binary.AppendUvarint(hdr, uint64(len(stored)))
	n, err := b.w.Write(hdr)
	b.written += int64(n)
	if err != nil {
		return fmt.Errorf("dataset: curtainbin segment header: %w", err)
	}
	n, err = b.w.Write(stored)
	b.written += int64(n)
	if err != nil {
		return fmt.Errorf("dataset: curtainbin segment payload: %w", err)
	}
	b.enc.reset()
	return nil
}

// countReader tracks how many bytes a binary scan has consumed, so a
// torn trailing segment's size is known exactly for truncation.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// binScanner reads a curtainbin stream segment by segment.
type binScanner struct {
	cr   *countReader
	br   *bufio.Reader
	rawB []byte
	stoB []byte
	strs []string
	fr   io.ReadCloser
}

// consumed reports the stream offset of the scanner: bytes taken from
// the underlying reader minus what still sits in the bufio buffer.
func (s *binScanner) consumed() int64 { return s.cr.n - int64(s.br.Buffered()) }

// scanBinary streams every record of a curtainbin stream whose 8-byte
// magic has already been consumed from br (which must buffer cr). With
// tolerateTorn, an incomplete trailing segment is dropped and its byte
// count returned; otherwise it is an error. Corruption inside a
// complete segment is always an error.
func scanBinary(cr *countReader, br *bufio.Reader, tolerateTorn bool, fn ScanFunc) (int, error) {
	s := &binScanner{cr: cr, br: br}
	for {
		segStart := s.consumed()
		n, err := s.readSegment(fn)
		if n == 0 && err == nil {
			return 0, nil // clean EOF at a segment boundary
		}
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
				if tolerateTorn {
					return int(s.consumed() - segStart), nil
				}
				return 0, fmt.Errorf("dataset: curtainbin: truncated segment at byte %d", segStart)
			}
			return 0, err
		}
	}
}

// readSegment reads one segment and yields its records. It returns
// (0, nil) on clean EOF before any header byte.
func (s *binScanner) readSegment(fn ScanFunc) (int, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(s.br, hdr[:1]); err == io.EOF {
		return 0, nil
	} else if err != nil {
		//lint:ignore errwrap the caller classifies EOFs for torn-tail handling
		return 1, err
	}
	if _, err := io.ReadFull(s.br, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		//lint:ignore errwrap the caller classifies EOFs for torn-tail handling
		return 1, err
	}
	if hdr[0] != segMagic[0] || hdr[1] != segMagic[1] || hdr[2] != segMagic[2] || hdr[3] != segMagic[3] {
		return 1, fmt.Errorf("dataset: curtainbin: bad segment magic %02x%02x%02x%02x", hdr[0], hdr[1], hdr[2], hdr[3])
	}
	flags := hdr[4]
	count, err := binary.ReadUvarint(s.br)
	if err != nil {
		return 1, eofAsTorn(err)
	}
	rawLen, err := binary.ReadUvarint(s.br)
	if err != nil {
		return 1, eofAsTorn(err)
	}
	storedLen, err := binary.ReadUvarint(s.br)
	if err != nil {
		return 1, eofAsTorn(err)
	}
	if rawLen > maxSegmentPayload || storedLen > maxSegmentPayload {
		return 1, fmt.Errorf("dataset: curtainbin: segment payload %d/%d exceeds limit", rawLen, storedLen)
	}
	if cap(s.stoB) < int(storedLen) {
		s.stoB = make([]byte, storedLen)
	}
	stored := s.stoB[:storedLen]
	if _, err := io.ReadFull(s.br, stored); err != nil {
		return 1, eofAsTorn(err)
	}

	raw := stored
	if flags&segFlagFlate != 0 {
		if cap(s.rawB) < int(rawLen) {
			s.rawB = make([]byte, rawLen)
		}
		raw = s.rawB[:rawLen]
		if s.fr == nil {
			s.fr = flate.NewReader(bytes.NewReader(stored))
		} else if err := s.fr.(flate.Resetter).Reset(bytes.NewReader(stored), nil); err != nil {
			return 1, fmt.Errorf("dataset: curtainbin: flate reset: %w", err)
		}
		if _, err := io.ReadFull(s.fr, raw); err != nil {
			return 1, fmt.Errorf("dataset: curtainbin: decompress segment: %w", err)
		}
		// The stream must be exhausted: a payload inflating past rawLen
		// would otherwise be silently truncated, hiding the corruption
		// from the trailing-bytes check below.
		if n, err := io.CopyN(io.Discard, s.fr, 1); n != 0 || err != io.EOF {
			return 1, fmt.Errorf("dataset: curtainbin: segment inflates past declared %d raw bytes", rawLen)
		}
	} else if uint64(len(raw)) != rawLen {
		return 1, fmt.Errorf("dataset: curtainbin: segment declares %d raw bytes but stores %d", rawLen, storedLen)
	}

	d := binDecoder{buf: raw}
	nstr, n := binary.Uvarint(raw)
	if n <= 0 || nstr > rawLen {
		return 1, fmt.Errorf("dataset: curtainbin: corrupt string table")
	}
	d.pos = n
	s.strs = s.strs[:0]
	for i := uint64(0); i < nstr; i++ {
		l := d.uvarint()
		if d.bad || l > uint64(len(d.buf)-d.pos) {
			return 1, fmt.Errorf("dataset: curtainbin: corrupt string table")
		}
		s.strs = append(s.strs, string(d.buf[d.pos:d.pos+int(l)]))
		d.pos += int(l)
	}
	d.tbl = s.strs

	for i := uint64(0); i < count; i++ {
		e := new(Experiment)
		if !d.decodeExperiment(e) {
			return 1, fmt.Errorf("dataset: curtainbin: corrupt record %d of segment: %w", i, errCorrupt)
		}
		if err := fn(e); err != nil {
			//lint:ignore errwrap the yield callback's error belongs to the caller unwrapped
			return 1, err
		}
	}
	if d.pos != len(raw) {
		return 1, fmt.Errorf("dataset: curtainbin: %d trailing payload bytes after %d records", len(raw)-d.pos, count)
	}
	return 1, nil
}

// eofAsTorn maps a bare EOF inside a segment to ErrUnexpectedEOF so the
// torn-tail classifier treats mid-header and mid-payload tears alike.
func eofAsTorn(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	//lint:ignore errwrap pass-through classification helper
	return err
}

// MarshalExperiments encodes experiments as one self-contained
// curtainbin stream (the control plane's segment payload).
func MarshalExperiments(es []*Experiment) ([]byte, error) {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	for _, e := range es {
		if err := bw.Append(e); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalExperiments decodes a MarshalExperiments stream.
func UnmarshalExperiments(b []byte) ([]*Experiment, error) {
	var es []*Experiment
	if err := Scan(bytes.NewReader(b), func(e *Experiment) error {
		es = append(es, e)
		return nil
	}); err != nil {
		return nil, err
	}
	return es, nil
}
