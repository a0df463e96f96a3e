package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: the benchmark wraps each public call. Parent is the index
// of the enclosing span (-1 at the root); spans of one request or job
// share Req.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine at a time (the traced replays are sequential); a nil
// recorder records nothing, which is how the untraced twin of a traced
// pass runs the same code.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	req   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: r.req, StartNS: int64(time.Since(r.epoch))})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].EndNS = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// ns returns the duration of closed span i in nanoseconds.
func (r *recorder) ns(i int) float64 {
	return float64(r.spans[i].EndNS - r.spans[i].StartNS)
}

// nextRequest starts a new request id for the spans that follow.
func (r *recorder) nextRequest() {
	if r != nil {
		r.req++
	}
}

// selfTimes returns, per span name, the summed duration minus the part
// covered by child spans, in nanoseconds.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := map[string]int64{}
	for i, s := range spans {
		self[s.Name] += s.EndNS - s.StartNS - child[i]
	}
	return self
}

// durations returns each span's duration in nanoseconds grouped by name.
func durations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS))
	}
	return out
}

// writeSpans writes the spans and their per-name self time to path.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfRow struct {
		Name   string `json:"name"`
		SelfNS int64  `json:"self_ns"`
	}
	doc := struct {
		Self  []selfRow `json:"self_time"`
		Spans []span    `json:"spans"`
	}{Spans: spans}
	for _, n := range names {
		doc.Self = append(doc.Self, selfRow{n, self[n]})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
