package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call: nothing inside the program emits spans. Spans of one
// request share Request; Parent is the ID of the span whose call
// caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request allocates an identifier shared by the spans of one request.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// record stores a finished span and returns its ID.
func (t *tracer) record(parent, request int, name string, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: s, EndNS: s + d.Nanoseconds()})
	return id
}

// reparent attaches already recorded spans to a parent recorded after
// them (a parent's ID is only known once its own call has returned).
func (t *tracer) reparent(parent int, children ...int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range children {
		t.spans[c-1].Parent = parent
	}
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.EndNS - s.StartNS
	}
	self := map[string]int64{}
	for _, s := range t.spans {
		self[s.Name] += s.EndNS - s.StartNS - covered[s.ID]
	}
	return self
}

// write dumps the spans to dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
