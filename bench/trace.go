package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one request
// or job share Op; Parent is the ID of the span that caused this one (0 for
// a root). Times are nanoseconds since the traced phase began.
type span struct {
	Name   string
	Tag    string // discriminator within a name: "hit"/"miss", a question form
	Op     int64
	ID     int32
	Parent int32
	Start  int64
	End    int64
	Self   int64 // duration minus the interval its children cover; set by merge
}

// recorder collects the spans of one goroutine without locking. A nil
// recorder is tracing switched off: begin and end are no-ops, so call sites
// stay unconditional.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its handle (-1 with tracing off). parent is
// the handle of the causing span, -1 for a root.
func (r *recorder) begin(name string, op int64, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		Name: name, Op: op, Parent: int32(parent + 1),
		Start: int64(time.Since(r.epoch)),
	})
	return len(r.spans) - 1
}

func (r *recorder) end(h int) { r.endTag(h, "") }

func (r *recorder) endTag(h int, tag string) {
	if r == nil || h < 0 {
		return
	}
	r.spans[h].End = int64(time.Since(r.epoch))
	r.spans[h].Tag = tag
}

// trace is the merged, self-timed span set of one traced phase.
type trace struct {
	spans []span
}

// merge concatenates per-goroutine recorders, renumbers span IDs to be
// unique across them and computes self times.
func merge(recs ...*recorder) *trace {
	t := &trace{}
	for _, r := range recs {
		if r == nil {
			continue
		}
		base := int32(len(t.spans))
		for i, s := range r.spans {
			s.ID = base + int32(i) + 1
			if s.Parent != 0 {
				s.Parent += base
			}
			t.spans = append(t.spans, s)
		}
	}
	// Self time: subtract the union of the children's intervals.
	children := map[int32][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			c := t.spans[k]
			if c.End <= covered {
				continue
			}
			from := c.Start
			if from < covered {
				from = covered
			}
			s.Self -= c.End - from
			covered = c.End
		}
	}
	return t
}

// durations returns the durations of every span with the given name (and
// tag, when tag is non-empty), in milliseconds.
func (t *trace) durations(name, tag string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes is durations over self time.
func (t *trace) selfTimes(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Self)/1e6)
		}
	}
	return out
}

// maxDumpSpans caps the trace file: point-hot records a span per request,
// millions per run, and the per-layer numbers are computed in memory anyway.
const maxDumpSpans = 200_000

// dump writes the trace as JSON; spans beyond maxDumpSpans are counted, not
// written.
func (t *trace) dump(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	n := len(t.spans)
	dropped := 0
	if n > maxDumpSpans {
		dropped = n - maxDumpSpans
		n = maxDumpSpans
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"dropped\":%d,\"spans\":[\n", workload, seed, dropped)
	for i, s := range t.spans[:n] {
		sep := ","
		if i == n-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"tag\":%q,\"op\":%d,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}%s\n",
			s.Name, s.Tag, s.Op, s.ID, s.Parent, s.Start, s.End, s.Self, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
