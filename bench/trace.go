package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Times are nanoseconds since the tracer started; Parent is the id of
// the span that caused this one (0 for a request's root span); spans of one
// request share Req.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; nothing is written until the run ends. The
// traced pass is serial, so the open spans form a stack. A nil tracer
// records nothing, which is how the untraced oracle walk runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	req   int32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return 0
	}
	var parent int32
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else {
		t.req++
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name})
	t.stack = append(t.stack, id)
	t.spans[id-1].Start = time.Since(t.t0).Nanoseconds()
	return id
}

// end closes span id, and with it any span opened inside it that an error
// path left open.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	for n := len(t.stack); n > 0; n-- {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		t.spans[top-1].End = now
		if top == id {
			return
		}
	}
}

// selfTimes returns, per span (same index), its duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other or stick out of the parent; only the union inside the parent counts.
func selfTimes(spans []span) []int64 {
	index := make(map[int32]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// layerTotals is the per-name sum over a trace.
type layerTotals struct {
	calls int
	total int64 // Σ duration, ns
	self  int64 // Σ self time, ns
}

func aggregate(spans []span) map[string]*layerTotals {
	self := selfTimes(spans)
	out := make(map[string]*layerTotals)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.calls++
		lt.total += s.End - s.Start
		lt.self += self[i]
	}
	return out
}

// traceFile is what bench/out/trace_<workload>.json holds.
type traceFile struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	PoolDigest string `json:"pool_digest"`
	Requests   int    `json:"requests"`
	Spans      []span `json:"spans"`
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
