package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a request's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, timed from its creation, until write.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allocates a request id.
func (t *tracer) request() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// add records a span and returns its id.
func (t *tracer) add(req, parent int64, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// event records a generator-observed request: the root spans due to done,
// and its children split it at the send and the first output.
func (t *tracer) event(ev *event) {
	req := t.request()
	root := t.add(req, 0, "request", ev.due, ev.done)
	t.add(req, root, "generator.wait", ev.due, ev.sent)
	t.add(req, root, "first_output", ev.sent, ev.first)
	t.add(req, root, "rest_of_output", ev.first, ev.done)
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
