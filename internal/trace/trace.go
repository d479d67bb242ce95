// Package trace records per-statement lifecycle traces: one span per
// stage a statement passes through (admission wait, parse, planning,
// memory grant, WAL append, stream drain) plus per-operator and spill
// detail derived from exec's operator counters.
//
// The design follows the engine's observability discipline: when
// tracing is off (sampling 0) a statement touches one atomic load and
// nothing else; when tracing is on, span appends are lock-free (a
// fixed span array filled through an atomic cursor), and only trace
// completion takes a short mutex to publish into the process-wide ring
// of recent traces. Retention couples to the slow-query threshold:
// a statement slower than the threshold is always kept, regardless of
// the sampling stride.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// MaxSpans bounds one trace's span buffer. Lifecycle stages use ~10
// spans; the rest hold per-operator and spill detail. Appends past the
// cap are counted, not stored.
const MaxSpans = 96

// DefaultRingSize is how many completed traces the process retains.
const DefaultRingSize = 256

// Span is one timed stage of a statement's life. StartNs is the offset
// from the trace's start; Depth 0 spans are the disjoint lifecycle
// stages (their durations sum to ≈ the statement duration), Depth 1
// spans are per-operator/spill detail nested inside the drain stage
// (operator times include child pulls, so they must not be summed).
type Span struct {
	Stage   string
	Detail  string
	StartNs int64
	DurNs   int64
	Depth   int32
}

// Collector accumulates one statement's spans. All methods are nil-safe
// so untraced statements pay nothing beyond the nil check.
type Collector struct {
	id      uint64
	session uint64
	text    string
	start   time.Time
	keep    bool // sampled for ring retention (slow statements override)

	n       atomic.Int32
	dropped atomic.Int32
	spans   [MaxSpans]Span

	totalNs atomic.Int64
	slow    atomic.Bool
	done    atomic.Bool
}

// ID returns the process-unique trace id (0 for a nil collector).
func (c *Collector) ID() uint64 {
	if c == nil {
		return 0
	}
	return c.id
}

// Session returns the owning session id.
func (c *Collector) Session() uint64 {
	if c == nil {
		return 0
	}
	return c.session
}

// Text returns the statement text.
func (c *Collector) Text() string {
	if c == nil {
		return ""
	}
	return c.text
}

// StartTime returns when the statement entered the engine (shifted
// earlier by the admission wait, when one was recorded).
func (c *Collector) StartTime() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.start
}

// TotalNs is the finished trace's wall-clock span (0 while active).
func (c *Collector) TotalNs() int64 {
	if c == nil {
		return 0
	}
	return c.totalNs.Load()
}

// Finished reports whether the trace has completed.
func (c *Collector) Finished() bool { return c != nil && c.done.Load() }

// Slow reports whether the statement crossed the slow threshold.
func (c *Collector) Slow() bool { return c != nil && c.slow.Load() }

// DroppedSpans counts appends lost to the MaxSpans cap.
func (c *Collector) DroppedSpans() int64 {
	if c == nil {
		return 0
	}
	return int64(c.dropped.Load())
}

// ElapsedNs is the time since the trace started (live view for active
// statements; finished traces report their final total).
func (c *Collector) ElapsedNs() int64 {
	if c == nil {
		return 0
	}
	if t := c.totalNs.Load(); t > 0 {
		return t
	}
	return int64(time.Since(c.start))
}

// AddSpan appends a fully specified span (lock-free).
func (c *Collector) AddSpan(s Span) {
	if c == nil {
		return
	}
	i := c.n.Add(1) - 1
	if int(i) >= MaxSpans {
		c.n.Add(-1)
		c.dropped.Add(1)
		return
	}
	c.spans[i] = s
}

// Add records a depth-0 lifecycle span from an absolute start time.
func (c *Collector) Add(stage string, start time.Time, dur time.Duration, detail string) {
	if c == nil {
		return
	}
	c.AddSpan(Span{Stage: stage, Detail: detail, StartNs: int64(start.Sub(c.start)), DurNs: int64(dur)})
}

// Begin opens a lifecycle span now and returns its closer; the span is
// recorded when the closer runs. Safe on a nil collector (the closer
// no-ops).
func (c *Collector) Begin(stage string) func(detail string) {
	if c == nil {
		return func(string) {}
	}
	start := time.Now()
	return func(detail string) {
		c.Add(stage, start, time.Since(start), detail)
	}
}

// SpanCount returns how many spans have been recorded. Unlike Spans it
// is safe on a statement that is still running (a slot is claimed
// before it is written, so only finished traces may be copied).
func (c *Collector) SpanCount() int {
	if c == nil {
		return 0
	}
	return min(int(c.n.Load()), MaxSpans)
}

// Spans returns a copy of the recorded spans in append order. Call it
// only once the statement has finished recording.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	out := make([]Span, c.SpanCount())
	copy(out, c.spans[:len(out)])
	return out
}

// Tracer owns the process's trace state: the sampling knob, the ring
// of completed traces, and the set of currently active statements.
type Tracer struct {
	sample atomic.Int64 // 0 = off; N>0 = retain 1-in-N (spans always recorded)
	slowNs atomic.Int64 // retention coupling; <=0 disables the override
	seq    atomic.Uint64
	tick   atomic.Uint64

	mu   sync.Mutex
	ring []*Collector
	pos  int

	activeMu sync.Mutex
	active   map[uint64]*Collector

	// Metrics, installed by the engine (nil-safe, walWriter-style).
	Started  *obs.Counter
	Retained *obs.Counter
	Dropped  *obs.Counter // spans lost to the per-trace cap
}

// New returns a tracer that traces every statement (sampling 1) with
// the default ring size.
func New() *Tracer {
	t := &Tracer{
		ring:   make([]*Collector, 0, DefaultRingSize),
		active: make(map[uint64]*Collector),
	}
	t.sample.Store(1)
	return t
}

// SetSampling sets the retention stride: 0 disables tracing entirely
// (statements get no collector), 1 retains every trace, N retains one
// in N (slow statements are always retained). Negative is clamped to 0.
func (t *Tracer) SetSampling(n int64) {
	if n < 0 {
		n = 0
	}
	t.sample.Store(n)
}

// Sampling returns the current stride.
func (t *Tracer) Sampling() int64 { return t.sample.Load() }

// SetSlowThreshold couples retention to the slow-query threshold:
// finished traces at least this slow are retained even when the
// sampling stride would skip them. 0 disables the coupling.
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slowNs.Store(int64(d)) }

// Start opens a trace for one statement, or returns nil when tracing
// is off. The statement's spans are recorded either way once a
// collector exists; the sampling stride only decides ring retention.
func (t *Tracer) Start(session uint64, text string) *Collector {
	return t.StartAt(session, text, time.Now())
}

// StartAt is Start with an explicit start time (sessions shift it
// earlier by the admission-queue wait so the wait is inside the trace).
func (t *Tracer) StartAt(session uint64, text string, start time.Time) *Collector {
	stride := t.sample.Load()
	if stride <= 0 {
		return nil
	}
	c := &Collector{
		id:      t.seq.Add(1),
		session: session,
		text:    text,
		start:   start,
		keep:    t.tick.Add(1)%uint64(stride) == 0,
	}
	if t.Started != nil {
		t.Started.Inc()
	}
	t.activeMu.Lock()
	t.active[c.id] = c
	t.activeMu.Unlock()
	return c
}

// Finish completes a trace: stamps the total, applies the slow
// coupling, removes it from the active set, and publishes it into the
// ring when retained. Safe to call with a nil collector; calling twice
// publishes once.
func (t *Tracer) Finish(c *Collector, total time.Duration) {
	if c == nil || !c.done.CompareAndSwap(false, true) {
		return
	}
	c.totalNs.Store(int64(total))
	if slow := t.slowNs.Load(); slow > 0 && int64(total) >= slow {
		c.slow.Store(true)
	}
	t.activeMu.Lock()
	delete(t.active, c.id)
	t.activeMu.Unlock()
	if d := c.dropped.Load(); d > 0 && t.Dropped != nil {
		t.Dropped.Add(uint64(d))
	}
	if !c.keep && !c.slow.Load() {
		return
	}
	if t.Retained != nil {
		t.Retained.Inc()
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, c)
	} else {
		t.ring[t.pos] = c
		t.pos = (t.pos + 1) % cap(t.ring)
	}
	t.mu.Unlock()
}

// Recent returns the retained traces, newest first.
func (t *Tracer) Recent() []*Collector {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Collector, 0, len(t.ring))
	// ring[pos-1] is newest once the ring has wrapped; before wrapping,
	// the newest is the last appended element.
	for i := len(t.ring) - 1; i >= 0; i-- {
		out = append(out, t.ring[(t.pos+i)%len(t.ring)])
	}
	return out
}

// Active returns the currently executing traced statements.
func (t *Tracer) Active() []*Collector {
	t.activeMu.Lock()
	defer t.activeMu.Unlock()
	out := make([]*Collector, 0, len(t.active))
	for _, c := range t.active {
		out = append(out, c)
	}
	return out
}

// RingLen reports how many completed traces are retained right now.
func (t *Tracer) RingLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// ActiveLen reports how many traced statements are executing.
func (t *Tracer) ActiveLen() int {
	t.activeMu.Lock()
	defer t.activeMu.Unlock()
	return len(t.active)
}

// --- context plumbing ---

// ctxKey keys the collector in a context.
type ctxKey struct{}

// WithCollector attaches a collector to ctx so deep engine layers (WAL
// append, group-commit wait) can stamp spans without signature churn.
// A nil collector masks one inherited from ctx: statements issued under
// the returned context are untraced.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	if c == nil && FromContext(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the attached collector, or nil.
func FromContext(ctx context.Context) *Collector {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(ctxKey{}).(*Collector)
	return c
}
