package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	smoke   bool
	outDir  string // durable engines, spill files and trace dumps live here
	pin     int    // GOMAXPROCS, engine parallelism, worker budget, connections
	size    sizes
}

// sizes are the data and per-round operation counts. The smoke sizing is
// about 1% of the data, for the test that checks the harness itself.
type sizes struct {
	graphScale uint // RMAT scale: 2^scale vertices
	graphEdges int
	nodes      int64 // key space of the fact and served tables
	factRows   int
	serveRows  int

	pointsPerConn int // serve_read phase A lookups per connection per round
	hopsPerConn   int // serve_read phase B joins per connection per round
	streams       int // serve_read phase C drains per round
	writePairs    int // serve_mixed INSERT+UPDATE pairs per round
	probeOps      int // operations per layer probe
	setups        int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	graphScale: 14, graphEdges: 100_000,
	nodes: 16384, factRows: 400_000, serveRows: 200_000,
	pointsPerConn: 400, hopsPerConn: 8, streams: 2, writePairs: 250,
	probeOps: 200, setups: 3,
}

var smokeSizes = sizes{
	graphScale: 8, graphEdges: 1000,
	nodes: 256, factRows: 4000, serveRows: 2000,
	pointsPerConn: 20, hopsPerConn: 4, streams: 1, writePairs: 10,
	probeOps: 12, setups: 1,
}

// workload is one of the six named scenarios. setup generates the
// inputs, loads them, starts what serves them and runs every statement
// and algorithm once; round does one fixed unit of closed-loop work and
// checks its answers; finish runs the end-of-run checks.
type workload interface {
	setup(ctx context.Context) error
	round(ctx context.Context) error
	finish(ctx context.Context) error
	close()
	state() *base
	// fixture is what the layer ladder probes: valid after setup, and
	// again after finish (which may reopen the engine).
	fixture() *fixture
}

// base is the bookkeeping every workload shares.
type base struct {
	cfg *config
	rec *recorder // nil in the end-to-end pass

	mu      sync.Mutex
	samples [3][]float64 // per-operation latency of op1..op3, ms
	notes   []string     // the first few oracle failures, for the report
	busy    time.Duration

	attempted atomic.Int64
	failed    atomic.Int64

	layer  map[string]float64       // per-layer numbers the workload measures on itself
	setupT map[string]time.Duration // named parts of set-up, for the traced pass
}

func (b *base) state() *base { return b }

func newBase(cfg *config, rec *recorder) base {
	return base{cfg: cfg, rec: rec, layer: map[string]float64{}, setupT: map[string]time.Duration{}}
}

// observe records one finished operation of class slot (0-based).
func (b *base) observe(slot int, d time.Duration) { b.observeAll(slot, []time.Duration{d}) }

// observeAll merges one caller's locally collected latencies.
func (b *base) observeAll(slot int, ds []time.Duration) {
	b.attempted.Add(int64(len(ds)))
	b.mu.Lock()
	for _, d := range ds {
		b.samples[slot] = append(b.samples[slot], float64(d)/1e6)
	}
	b.mu.Unlock()
}

// wrong counts an operation whose answer failed its oracle (or that
// returned an error): a wrong answer is a failed operation.
func (b *base) wrong(err error) {
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.notes) < 5 {
		b.notes = append(b.notes, err.Error())
	}
	b.mu.Unlock()
}

// phase adds the wall time of one timed phase; ops_s divides by the sum.
func (b *base) phase(d time.Duration) {
	b.mu.Lock()
	b.busy += d
	b.mu.Unlock()
}

// passResult is what one pass of one workload reports.
type passResult struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
	Ops       [3]summary // in-run latency samples of op1..op3, ms
	Notes     []string   // the first few oracle failures
}

// runRounds repeats fixed-work rounds until the time budget is spent.
// Every round does identical work, so counts made by the program repeat
// exactly whatever the number of rounds.
func runRounds(ctx context.Context, w workload, seconds float64) error {
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds() < seconds; r++ {
		if err := w.round(ctx); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
	}
	return nil
}

// endToEnd is the untraced pass: several set-ups (the last one kept),
// then rounds for cfg.seconds with the harness's spans off and the
// engine at its shipped defaults.
func endToEnd(ctx context.Context, cfg *config, spec *workloadSpec) (*passResult, error) {
	var w workload
	var setups []float64
	for i := 0; i < cfg.size.setups; i++ {
		if w != nil {
			w.close()
		}
		w = spec.make(cfg, nil)
		s0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(s0).Seconds())
	}
	defer w.close()
	if err := runRounds(ctx, w, cfg.seconds); err != nil {
		return nil, err
	}
	if err := w.finish(ctx); err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	res := w.state().result()
	res.Metrics["setup_s"] = median(setups)
	return res, nil
}

// result turns the recorded samples into the end-to-end metrics.
func (b *base) result() *passResult {
	res := &passResult{
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   map[string]float64{},
		Notes:     b.notes,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	ops := 0
	for i, xs := range b.samples {
		s := summarize(xs)
		res.Ops[i] = s
		res.Metrics[fmt.Sprintf("op%d_ms", i+1)] = s.Median
		res.Metrics[fmt.Sprintf("op%d_p95_ms", i+1)] = s.P95
		ops += s.N
	}
	res.Metrics["ops_s"] = ratio(float64(ops), b.busy.Seconds())
	return res
}

// processStats is a reading of the process's own resource counters.
type processStats struct {
	mem runtime.MemStats
	cpu time.Duration
}

func readProcess() processStats {
	var p processStats
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// heapPeak samples the live heap until stopped, so a transient peak
// between two readings of MemStats is not missed entirely. It reads
// runtime/metrics, which, unlike ReadMemStats, does not stop the world
// under the workload it watches.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(sample)
			if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
				h.peak = v.Uint64()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// scratchDir makes an empty directory under the output directory.
func scratchDir(cfg *config, name string) (string, error) {
	dir := filepath.Join(cfg.outDir, "tmp", name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
