package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its call into that layer. Spans sharing Req belong to one request;
// Parent indexes the enclosing span in the same span list (-1 for a root).
// Times are nanoseconds from the start of the pass that recorded them.
type span struct {
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects the spans of one goroutine in memory; merge combines
// several once their goroutines have finished.
type tracer struct {
	pass  string
	spans []span
}

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name string, req int64, parent int, start, end int64) int {
	t.spans = append(t.spans, span{Pass: t.pass, Name: name, Req: req, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// merge concatenates tracers' spans, rebasing parent indexes.
func merge(ts ...*tracer) []span {
	var out []span
	for _, t := range ts {
		base := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTime is the part of parent's interval that none of children covers:
// its duration minus the length of the union of the children's intervals,
// each clipped to the parent. Overlapping children are counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = v
			continue
		}
		cur.hi = max(cur.hi, v.hi)
	}
	covered += cur.hi - cur.lo
	return parent.dur() - covered
}

// selfTimes returns the self time of every span named name in spans.
func selfTimes(spans []span, name string) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(selfTime(s, children[i])))
		}
	}
	return out
}

// durations returns the duration of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// timingSpans turns an open-loop phase into spans: for every operation
// that ran, a request span from its due time to its completion and, inside
// it, a span named name from its send to its completion.
func timingSpans(pass, name string, t *timing) *tracer {
	tr := &tracer{pass: pass}
	for i, s := range t.sent {
		if s >= 0 {
			root := tr.add("request", int64(i), -1, t.due[i], t.done[i])
			tr.add(name, int64(i), root, s, t.done[i])
		}
	}
	return tr
}

// writeSpans writes a traced run's spans as JSON.
func writeSpans(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
