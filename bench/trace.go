package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"syrep/internal/obs"
)

// noParent marks a span whose parent is inferred after the run: the
// program's own stage spans (delivered through obs.Sink) and the spans of the
// timing decorators carry no parent link, so each is parented to the
// smallest span whose interval contains it.
const noParent = -1

// span is one traced interval. Times are nanoseconds from the tracer's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root op span
	Trace  int    `json:"trace"`  // id of the root op span; shared by one op's spans
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Self   int64  `json:"selfNs"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a traced run's spans in memory. Bench code opens explicit
// spans around each op and each public call it makes; the program's stage
// spans arrive through the obs.Sink method. Span ids start at 1.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// begin opens a span at the given time and returns its id. A nil tracer
// records nothing and returns 0.
func (t *tracer) begin(name string, parent int, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.ns(at), End: t.ns(at)})
	return id
}

// end closes span id at the given time.
func (t *tracer) end(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.ns(at)
}

// reset drops every span recorded so far and restarts the clock: a traced
// phase keeps only its own spans, not those of the warm-up before it.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	t.t0 = time.Now()
}

// add records a completed span whose parent is inferred later. A span that
// started before the last reset belongs to the warm-up and is dropped.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if start.Before(t.t0) {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: noParent, Name: name, Start: t.ns(start), End: t.ns(end)})
}

// Span implements obs.Sink.
func (t *tracer) Span(s obs.Span) { t.add(s.Name, s.Start, s.End) }

// link resolves inferred parents by interval containment, assigns trace ids
// and self times, and returns the finished spans. A parent is always longer
// than its child (or as long and opened earlier), so the links form a
// forest.
func (t *tracer) link() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.End != y.End {
			return x.End > y.End
		}
		return x.ID < y.ID
	})
	// Sweep by start time. A span that ended before the current span starts
	// cannot contain it or anything after it, so the active set stays as
	// small as the deepest overlap.
	var active []int
	for _, i := range order {
		s := &spans[i]
		keep := active[:0]
		for _, a := range active {
			if spans[a].End >= s.Start {
				keep = append(keep, a)
			}
		}
		active = keep
		if s.Parent == noParent {
			s.Parent = 0
			best := -1
			for _, a := range active {
				p := spans[a]
				if p.End < s.End || !longer(p, *s) {
					continue
				}
				if best < 0 || longer(spans[best], p) {
					best = a
				}
			}
			if best >= 0 {
				s.Parent = spans[best].ID
			}
		}
		active = append(active, i)
	}

	children := make(map[int][]interval, len(spans))
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = selfTime(interval{s.Start, s.End}, children[s.ID])
		root := s
		for root.Parent > 0 {
			root = &spans[root.Parent-1]
		}
		s.Trace = root.ID
	}
	return spans
}

// longer orders candidate parents: p may parent c only when p is longer, or
// as long and opened first.
func longer(p, c span) bool {
	if p.dur() != c.dur() {
		return p.dur() > c.dur()
	}
	return p.ID < c.ID
}

// writeSpans writes the linked spans of a traced run to path as one JSON
// document.
func writeSpans(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
