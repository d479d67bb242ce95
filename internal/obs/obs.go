// Package obs is the engine-wide metrics registry: named counters,
// callback gauges, and fixed-bucket latency histograms that every
// subsystem (engine, parse cache, WAL, MVCC, scheduler, server) feeds.
// The registry is the single surface behind `SHOW STATS`, the expvar
// debug endpoint, and the slow-query log's context — one place to look
// when asking where a server's time goes.
//
// Counters and histograms are lock-free on the hot path (atomics);
// gauges are pull-only closures evaluated at snapshot time, so a
// subsystem exposes live state (sessions, queue depth, live readers)
// without pushing updates. Snapshot output is sorted by name, so
// `SHOW STATS` is deterministic row-for-row.
package obs

import (
	"expvar"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// histBounds are the histogram bucket upper bounds in microseconds:
// a coarse log scale from 50µs to 10s, wide enough for statement
// latencies without per-observation allocation. The last bucket is
// unbounded.
var histBounds = [numHistBounds]int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 10_000_000,
}

const numHistBounds = 16

// Histogram is a fixed-bucket latency histogram. Quantile estimates
// report the upper bound of the bucket holding the requested rank —
// coarse, allocation-free, and monotone.
type Histogram struct {
	counts [numHistBounds + 1]atomic.Uint64
	total  atomic.Uint64
	sumUS  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	i := 0
	for i < len(histBounds) && us > histBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumUS.Add(us)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Quantile returns the q-quantile estimate in microseconds (the upper
// bound of the covering bucket; the overflow bucket reports the sum
// bound 10s). q outside (0,1] and an empty histogram report 0.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.total.Load()
	if n == 0 || q <= 0 || q > 1 {
		return 0
	}
	rank := uint64(q * float64(n))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i < len(histBounds) {
				return histBounds[i]
			}
			return histBounds[len(histBounds)-1]
		}
	}
	return histBounds[len(histBounds)-1]
}

// Stat is one snapshot row.
type Stat struct {
	Name  string
	Value int64
}

// Registry holds named metrics. The zero value is not usable; call New.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() int64
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Safe for concurrent callers; the same name always yields
// the same counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers (or replaces) a pull gauge: fn is evaluated at every
// snapshot. fn must be safe to call from any goroutine.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Histogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot evaluates every metric and returns the rows sorted by name.
// Histograms expand to .count, .p50, .p95 and .p99 (microseconds).
func (r *Registry) Snapshot() []Stat {
	r.mu.Lock()
	out := make([]Stat, 0, len(r.counters)+len(r.gauges)+4*len(r.hists))
	for name, c := range r.counters {
		out = append(out, Stat{name, int64(c.Load())})
	}
	gauges := make(map[string]func() int64, len(r.gauges))
	for name, fn := range r.gauges {
		gauges[name] = fn
	}
	for name, h := range r.hists {
		out = append(out,
			Stat{name + ".count", int64(h.Count())},
			Stat{name + ".p50_us", h.Quantile(0.50)},
			Stat{name + ".p95_us", h.Quantile(0.95)},
			Stat{name + ".p99_us", h.Quantile(0.99)},
		)
	}
	r.mu.Unlock()
	// Gauges run outside the registry lock: they may read subsystem
	// locks of their own, and nothing stops them registering metrics.
	for name, fn := range gauges {
		out = append(out, Stat{name, fn()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PublishExpvar exports the registry snapshot as one expvar map under
// the given top-level name (the `vxserve -debug-addr` endpoint).
// Publishing the same name twice is a no-op (expvar panics on
// duplicates; restart-in-process tests must not).
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() interface{} {
		snap := r.Snapshot()
		m := make(map[string]int64, len(snap))
		for _, s := range snap {
			m[s.Name] = s.Value
		}
		return m
	}))
}
