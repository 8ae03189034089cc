package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer records the benchmark's own spans around the calls it makes
// into the program's layers. Every call comes from the one driver
// goroutine, so a stack gives parent links and self times without any
// locking. Nothing is recorded inside the program: spans there are a
// later issue.
//
// A nil *tracer is the untraced run: begin and end are no-ops. The
// readers below are for the traced run's report only.
type tracer struct {
	on    bool // spans are kept only while on (traced slices)
	epoch time.Time
	stack []int
	spans []span
	self  map[string][]float64 // self time samples per span name, microseconds
	total map[string][]float64 // whole-span samples, children included
	opID  int64
}

// span is one recorded interval. Parent is an index into the span list
// (-1 for a root); Op groups the spans of one operation.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	child   int64  // nanoseconds covered by child spans
}

// maxFileSpans bounds the span file; self-time samples keep counting
// past it.
const maxFileSpans = 200_000

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), self: make(map[string][]float64), total: make(map[string][]float64)}
}

type spanRef int

const noSpan spanRef = -1

func (t *tracer) begin(name string) spanRef {
	if t == nil || !t.on {
		return noSpan
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else {
		t.opID++
	}
	t.spans = append(t.spans, span{Name: name, StartNS: time.Since(t.epoch).Nanoseconds(), Parent: parent, Op: t.opID})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return spanRef(id)
}

func (t *tracer) end(ref spanRef) {
	if ref == noSpan {
		return
	}
	s := &t.spans[ref]
	s.EndNS = time.Since(t.epoch).Nanoseconds()
	// Pop down to this span: an op that failed half way leaves its open
	// phase behind, and it must not become the parent of the next op.
	for n := len(t.stack); n > 0; n-- {
		if t.stack[n-1] == int(ref) {
			t.stack = t.stack[:n-1]
			break
		}
	}
	dur := s.EndNS - s.StartNS
	if s.Parent >= 0 {
		t.spans[s.Parent].child += dur
	}
	t.self[s.Name] = append(t.self[s.Name], float64(dur-s.child)/1e3)
	t.total[s.Name] = append(t.total[s.Name], float64(dur)/1e3)
	if s.Parent < 0 && len(t.spans) > maxFileSpans {
		// Past the file bound a finished operation's spans are dropped;
		// their self times are already sampled.
		t.spans = t.spans[:maxFileSpans]
	}
}

// selfP50 is the median self time of the named span in microseconds
// (0 when the workload never opened it).
func (t *tracer) selfP50(name string) float64 {
	return percentile(t.self[name], 0.5)
}

// totalP50 is the median whole duration of the named span, children
// included, in microseconds.
func (t *tracer) totalP50(name string) float64 {
	return percentile(t.total[name], 0.5)
}

func (t *tracer) selfSum(name string) float64 {
	sum := 0.0
	for _, v := range t.self[name] {
		sum += v
	}
	return sum
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
