package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// spanName identifies what a span wraps: one call from the
// benchmark's own code into a layer of the system under test.
type spanName uint8

const (
	spanRep     spanName = iota // one timed repetition (root span)
	spanSerial                  // one serial-elision repetition
	spanStages                  // dedup.CharacterizeStages
	spanSpawn                   // Frame.Spawn in the finegrain producer tree
	spanSync                    // Frame.Sync in the finegrain producer tree
	spanPush                    // a finegrain leaf's push loop
	spanConsume                 // the finegrain consumer task body
	spanEmpty                   // a sampled Empty call of the finegrain consumer
	spanArrive                  // the stream generator sleeping until an event is due
)

var spanNames = [...]string{
	spanRep:     "rep",
	spanSerial:  "serial",
	spanStages:  "dedup.stages",
	spanSpawn:   "sched.spawn",
	spanSync:    "sched.sync",
	spanPush:    "core.push",
	spanConsume: "core.consume",
	spanEmpty:   "core.empty",
	spanArrive:  "loadgen.sleep",
}

func (n spanName) String() string { return spanNames[n] }

// span is one recorded interval: times are nanoseconds since the
// tracer's epoch, parent is the id of the enclosing span (0 for roots)
// and rep is the repetition the span belongs to.
type span struct {
	start, end int64
	parent     int32
	rep        int32
	name       spanName
}

// tracer keeps spans in a preallocated slice so that recording is one
// atomic increment and two clock reads; spans are written out only when
// the benchmark ends. A nil *tracer records nothing, which is how
// untraced repetitions run.
type tracer struct {
	epoch   time.Time
	next    atomic.Int32
	dropped atomic.Int64
	spans   []span
	rep     int32 // repetition being recorded
	root    int32 // span of the repetition being recorded
	// cur holds, per worker id, the innermost open span that worker's
	// goroutine is inside, so that a task the worker runs inline (a
	// Frame.Sync helping its own children) is parented to that span.
	cur [maxWorkers]atomic.Int32
}

const maxWorkers = 256

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its id (0 when untraced or full).
func (t *tracer) begin(name spanName, parent int32) int32 {
	if t == nil {
		return 0
	}
	i := t.next.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[i] = span{name: name, parent: parent, rep: t.rep, start: int64(time.Since(t.epoch))}
	return i + 1
}

// end closes the span begin returned and reports its duration in ns.
func (t *tracer) end(id int32) int64 {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.end = int64(time.Since(t.epoch))
	return s.end - s.start
}

// parentOf returns the innermost open span on worker w, or the
// repetition's root span.
func (t *tracer) parentOf(w int) int32 {
	if t == nil {
		return 0
	}
	if w < maxWorkers {
		if p := t.cur[w].Load(); p != 0 {
			return p
		}
	}
	return t.root
}

// enter marks span id as the innermost open span on worker w and
// returns the previous one for leave.
func (t *tracer) enter(w int, id int32) int32 {
	if t == nil || w >= maxWorkers {
		return 0
	}
	return t.cur[w].Swap(id)
}

func (t *tracer) leave(w int, prev int32) {
	if t == nil || w >= maxWorkers {
		return
	}
	t.cur[w].Store(prev)
}

// beginRep opens the root span of repetition rep.
func (t *tracer) beginRep(rep int32, name spanName) {
	if t == nil {
		return
	}
	t.rep, t.root = rep, 0
	t.root = t.begin(name, 0)
}

// endRep closes the root span opened by beginRep.
func (t *tracer) endRep() {
	if t == nil {
		return
	}
	t.end(t.root)
	t.root = 0
}

// recorded returns the spans recorded so far. Call it only while no
// task is recording.
func (t *tracer) recorded() []span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// spanTotals aggregates closed spans by name: the count, the summed
// duration and the summed self time (duration minus the part covered
// by direct children, which run sequentially on the parent's worker),
// all in nanoseconds.
type spanTotal struct{ count, total, self int64 }

func spanTotals(spans []span) map[spanName]spanTotal {
	childTime := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.end >= s.start && s.parent > 0 {
			childTime[s.parent] += s.end - s.start
		}
	}
	out := map[spanName]spanTotal{}
	for i, s := range spans {
		if s.end < s.start {
			continue // never closed
		}
		d := s.end - s.start
		t := out[s.name]
		t.count++
		t.total += d
		t.self += max(d-childTime[i+1], 0)
		out[s.name] = t
	}
	return out
}

// write dumps every span as CSV (id,parent,rep,name,start_ns,end_ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,rep,name,start_ns,end_ns")
	for i, s := range t.recorded() {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i+1, s.parent, s.rep, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanNote writes the spans to path and returns a line reporting it.
func spanNote(t *tracer, path string) string {
	n := len(t.recorded())
	if err := t.write(path); err != nil {
		return fmt.Sprintf("spans: %d recorded, %d dropped, not written: %v", n, t.dropped.Load(), err)
	}
	return fmt.Sprintf("spans: %d recorded, %d dropped, written to %s", n, t.dropped.Load(), path)
}
