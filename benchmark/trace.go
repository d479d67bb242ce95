package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one interval at a layer boundary. Spans of one operation share
// Op; Parent is the span that caused this one (0 for the operation's
// root). Times are nanoseconds since the recorder started.
type span struct {
	Op     int64  `json:"op_id"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the harness's spans in memory until the run ends. A nil
// recorder records nothing, which is how the end-to-end pass runs.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	nextOp int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the recorder's clock.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// op allocates an operation id.
func (r *recorder) op() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextOp++
	return r.nextOp
}

// add records a finished span and returns its id.
func (r *recorder) add(op, parent int64, name string, start, end int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfShares attributes the recorded time to layers. A span's self time
// is its duration minus the part its children cover; a span's layer is
// the text before the first dot of its name. The result maps each layer
// to its share, in percent, of the time spent in root spans. Operator
// spans (exec.*) are left out: their durations are counter sums over
// parallel clones, and over every execution of a cached plan, not
// intervals, so operator time stays inside the engine's drain stage.
func (r *recorder) selfShares() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]int64, len(r.spans)+1)
	var rootTotal int64
	for _, s := range r.spans {
		d := s.End - s.Start
		switch {
		case s.Parent == 0:
			rootTotal += d
		case !strings.HasPrefix(s.Name, "exec."):
			covered[s.Parent] += d
		}
	}
	self := map[string]float64{}
	for _, s := range r.spans {
		if strings.HasPrefix(s.Name, "exec.") {
			continue
		}
		d := s.End - s.Start - covered[s.ID]
		if d < 0 {
			d = 0
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += float64(d)
	}
	for k, v := range self {
		self[k] = 100 * ratio(v, float64(rootTotal))
	}
	return self
}
