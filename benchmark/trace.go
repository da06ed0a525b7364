package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark around its calls into each layer and kept in memory
// until the run ends. Parent is the span that caused this one (-1 for a
// root); spans of one query share Query.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
	// OffPath marks a span that ran beside a slower sibling (a shard
	// that was not the last to answer): it did not block the result, so
	// it is left out when self times are summed along the blocking path.
	OffPath bool `json:"off_path,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. It is used from one goroutine; parallel work
// is timed by its own goroutines and added afterwards.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, parent, query int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Query: query, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent, query int, start, end int64) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Query: query, Name: name, Start: start, End: end})
	return len(t.spans) - 1
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, hi := int64(0), s.Start
		for _, k := range ks {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// selfByName sums self time per span name along the blocking path under
// roots named root, and returns it with the roots' total duration.
func selfByName(spans []span, root string) (byName map[string]int64, rootTotal int64) {
	self := selfTimes(spans)
	under := make([]bool, len(spans)) // parents precede children, so one pass settles it
	byName = make(map[string]int64)
	for i, s := range spans {
		switch {
		case s.Parent < 0:
			under[i] = s.Name == root
			if under[i] {
				rootTotal += s.dur()
			}
		default:
			under[i] = under[s.Parent] && !s.OffPath
		}
		if under[i] {
			byName[s.Name] += self[i]
		}
	}
	return byName, rootTotal
}

// durations returns the durations in ms of the spans with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

func writeTrace(path string, spans []span) error {
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
