package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public entry point. Spans of one
// request share req; parent names the span of the same request one layer
// up (the layers are replayed one after another on the same inputs, so
// the parent is the enclosing call's logical position, not a live stack).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. With on=false, do only
// runs the call: that pass measures the wall time the spans cost.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, base: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<16)
	}
	return t
}

// do times fn as a span named name and returns the span's id and
// duration (0, 0 with spans off).
func (t *tracer) do(name string, parent uint64, req int64, fn func()) (uint64, time.Duration) {
	if !t.on {
		fn()
		return 0, 0
	}
	// The id is taken before fn runs, so spans fn records (children)
	// come after their parent and can name it.
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req})
	start := time.Now()
	fn()
	end := time.Now()
	sp := &t.spans[id-1]
	sp.Start, sp.End = int64(start.Sub(t.base)), int64(end.Sub(t.base))
	return id, end.Sub(start)
}

// nextID is the id the next do call will take.
func (t *tracer) nextID() uint64 { return uint64(len(t.spans) + 1) }

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
