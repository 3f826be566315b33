package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// run's epoch; parent indexes the enclosing span of the same tracer
// (-1 for a root); id is the experiment seq or query key it served, and
// ref relates spans across goroutines (the serving path's query name).
type span struct {
	name       string
	id, ref    uint64
	parent     int32
	start, end int64
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer records nested spans for one goroutine. The nesting stack is
// what makes self time exact: a call's children are the spans opened
// while it was open.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
}

func newTracer(epoch time.Time, capHint int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capHint), stack: make([]int32, 0, 16)}
}

func (t *tracer) begin(name string, id uint64) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: int64(time.Since(t.epoch))})
	i := int32(len(t.spans) - 1)
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32) {
	t.spans[i].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// flatTracer records spans from many goroutines at once (the serving
// path, where one query's work hops goroutines); spans carry no parent
// and are related by id instead.
type flatTracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *flatTracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *flatTracer) add(name string, id, ref uint64, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, ref: ref, parent: -1, start: start, end: end})
	t.mu.Unlock()
}

// layerTime is the total and self time of one span name.
type layerTime struct {
	count       int
	total, self int64 // ns
}

// layerTimes sums each span name's duration and self time (duration
// minus the time its direct children cover) over the given tracers.
func layerTimes(ts ...*tracer) map[string]*layerTime {
	out := map[string]*layerTime{}
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		for i := range t.spans {
			if p := t.spans[i].parent; p >= 0 {
				child[p] += t.spans[i].dur()
			}
		}
		for i := range t.spans {
			s := &t.spans[i]
			lt := out[s.name]
			if lt == nil {
				lt = &layerTime{}
				out[s.name] = lt
			}
			lt.count++
			lt.total += s.dur()
			lt.self += s.dur() - child[i]
		}
	}
	return out
}

// selfUS returns a layer's self time in microseconds per unit.
func selfUS(lts map[string]*layerTime, name string, units int) float64 {
	if lt := lts[name]; lt != nil && units > 0 {
		return float64(lt.self) / 1e3 / float64(units)
	}
	return 0
}

func totalUS(lts map[string]*layerTime, name string, units int) float64 {
	if lt := lts[name]; lt != nil && units > 0 {
		return float64(lt.total) / 1e3 / float64(units)
	}
	return 0
}

// durations returns the durations (µs) of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].name == name {
			out = append(out, float64(spans[i].dur())/1e3)
		}
	}
	return out
}

// writeSpans writes every span as one tab-separated line:
// tracer, index, name, id, ref, parent, start_ns, end_ns.
func writeSpans(path string, groups ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(w, "tracer\tindex\tname\tid\tref\tparent\tstart_ns\tend_ns")
	for g, spans := range groups {
		for i := range spans {
			s := &spans[i]
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n", g, i, s.name, s.id, s.ref, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
