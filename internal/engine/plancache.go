package engine

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
)

// preparedCacheSize bounds the prepared-plan cache. Entries are small
// (an AST plus an operator tree), so the limit exists to cap pathological
// workloads that generate unbounded distinct statement texts, not memory
// in the steady state.
const preparedCacheSize = 128

// planCache is the bind-and-run statement cache: statement text (plus
// the argument type signature — parameter types are frozen into a plan)
// maps to a parsed AST and, for cacheable SELECTs, a prepared plan.
// A prepared plan mutates shared state when bound (ParamSlot, scan
// targets, context ref), so exactly one execution may hold it at a
// time; concurrent executions of the same statement bypass the cache
// with a fresh plan rather than queue.
type planCache struct {
	mu    sync.Mutex
	max   int
	lru   *list.List // of *cacheEntry, front = most recently used
	items map[string]*list.Element
	// parsing holds the parse in flight for each key not yet cached.
	parsing map[string]*parseCall

	parses   atomic.Uint64 // statements actually parsed
	plans    atomic.Uint64 // SELECT plans actually built
	hits     atomic.Uint64 // executions served by a cached plan
	misses   atomic.Uint64 // plan lookups that found none (or a stale one)
	bypasses atomic.Uint64 // cached plan busy; execution planned fresh
}

type cacheEntry struct {
	key       string
	st        sql.Statement
	numParams int
	// prep is nil for DML, for SELECTs whose first execution has not
	// finished planning, and after invalidation (the parse is kept).
	prep    *plan.Prepared
	catVer  uint64 // catalog version prep was built against
	workers int    // parallelism prep was built for
	workMem int64  // per-statement memory grant frozen into prep
	busy    bool   // prep checked out by a running execution
}

// parseCall is one in-flight parse; its fields are set before done
// closes and read only after.
type parseCall struct {
	done      chan struct{}
	st        sql.Statement
	numParams int
	err       error
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, lru: list.New(), items: make(map[string]*list.Element), parsing: make(map[string]*parseCall)}
}

// cacheKey derives the cache key for one execution: the normalized
// statement fingerprint plus the argument type signature. Parameter
// types are taken from the first execution's arguments and frozen into
// the plan, so the same text bound with differently-typed arguments
// needs a separate entry.
func cacheKey(text string, args []storage.Value) string {
	norm := normalizeStatement(text)
	if len(args) == 0 {
		return norm
	}
	b := make([]byte, 0, len(norm)+1+len(args))
	b = append(b, norm...)
	b = append(b, 0)
	for _, a := range args {
		b = append(b, byte(a.Type))
	}
	return string(b)
}

// normalizeStatement fingerprints statement text so trivially different
// spellings share one cache entry: runs of whitespace and SQL comments
// collapse to a single space, and bare words that are reserved words of
// the dialect case-fold to upper case. Quoted regions — '...' string
// literals (with ” escapes) and "..." identifiers — are copied
// verbatim, so `select  1` and `SELECT 1` share an entry while the
// literals 'a b' and 'a  b' stay distinct.
func normalizeStatement(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	needSpace := false
	i, n := 0, len(text)
	for i < n {
		c := text[i]
		// Skippable regions: whitespace and comments become one space
		// (emitted lazily, so leading/trailing runs vanish).
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			i++
			needSpace = b.Len() > 0
			continue
		case c == '-' && i+1 < n && text[i+1] == '-':
			for i < n && text[i] != '\n' {
				i++
			}
			needSpace = b.Len() > 0
			continue
		case c == '/' && i+1 < n && text[i+1] == '*':
			end := strings.Index(text[i+2:], "*/")
			if end < 0 {
				i = n // unterminated: the parse will reject it anyway
			} else {
				i += end + 4
			}
			needSpace = b.Len() > 0
			continue
		}
		if needSpace {
			b.WriteByte(' ')
			needSpace = false
		}
		switch {
		case c == '\'': // string literal; '' escapes a quote
			j := i + 1
			for j < n {
				if text[j] == '\'' {
					if j+1 < n && text[j+1] == '\'' {
						j += 2
						continue
					}
					j++
					break
				}
				j++
			}
			b.WriteString(text[i:j])
			i = j
		case c == '"': // quoted identifier, no escapes
			j := i + 1
			for j < n && text[j] != '"' {
				j++
			}
			if j < n {
				j++
			}
			b.WriteString(text[i:j])
			i = j
		case c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z'):
			j := i
			for j < n {
				w := text[j]
				if w == '_' || ('a' <= w && w <= 'z') || ('A' <= w && w <= 'Z') || ('0' <= w && w <= '9') {
					j++
					continue
				}
				break
			}
			word := text[i:j]
			if up := strings.ToUpper(word); sql.IsKeyword(up) {
				b.WriteString(up)
			} else {
				b.WriteString(word)
			}
			i = j
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

// parse returns the cached AST for key, parsing and caching text on a
// miss. The AST is read-only and shared freely across executions. The
// parse is single-flight per key: concurrent first executions of one
// statement wait for a single parse instead of each parsing it.
func (pc *planCache) parse(text, key string) (sql.Statement, int, error) {
	pc.mu.Lock()
	if el, ok := pc.items[key]; ok {
		e := el.Value.(*cacheEntry)
		pc.lru.MoveToFront(el)
		st, n := e.st, e.numParams
		pc.mu.Unlock()
		return st, n, nil
	}
	if c, ok := pc.parsing[key]; ok {
		pc.mu.Unlock()
		<-c.done
		return c.st, c.numParams, c.err
	}
	c := &parseCall{done: make(chan struct{})}
	pc.parsing[key] = c
	pc.mu.Unlock()

	c.st, c.err = sql.Parse(text)
	if c.err == nil {
		pc.parses.Add(1)
		c.numParams = sql.NumParams(c.st)
	}

	pc.mu.Lock()
	delete(pc.parsing, key)
	if c.err == nil {
		pc.items[key] = pc.lru.PushFront(&cacheEntry{key: key, st: c.st, numParams: c.numParams})
		pc.evictLocked()
	}
	pc.mu.Unlock()
	close(c.done)
	return c.st, c.numParams, c.err
}

// checkoutPlan claims the cached prepared plan under key for exclusive
// use by one execution. It returns nil when there is no plan yet, the
// plan is stale (catalog version, worker count or work_mem changed —
// the parse is kept, the plan dropped), or another execution holds it
// (bypass).
func (pc *planCache) checkoutPlan(key string, catVer uint64, workers int, workMem int64) *cacheEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.items[key]
	if !ok {
		pc.misses.Add(1)
		return nil
	}
	e := el.Value.(*cacheEntry)
	if e.prep == nil {
		pc.misses.Add(1)
		return nil
	}
	if e.busy {
		pc.bypasses.Add(1)
		return nil
	}
	if e.catVer != catVer || e.workers != workers || e.workMem != workMem {
		e.prep = nil
		pc.misses.Add(1)
		return nil
	}
	e.busy = true
	pc.lru.MoveToFront(el)
	pc.hits.Add(1)
	return e
}

// peek reports whether a usable prepared plan is cached under key —
// without touching the hit/miss counters, the LRU order, or the busy
// flag. EXPLAIN uses it to report plan-cache state for a statement
// while leaving the cache exactly as it found it.
func (pc *planCache) peek(key string, catVer uint64, workers int, workMem int64) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.items[key]
	if !ok {
		return false
	}
	e := el.Value.(*cacheEntry)
	return e.prep != nil && e.catVer == catVer && e.workers == workers && e.workMem == workMem
}

// attach installs a freshly built plan on key's entry, checked out by
// the calling execution (release it when the run ends). It returns nil —
// and the plan stays single-use — when the entry was evicted since
// parse or a concurrent execution already attached one.
func (pc *planCache) attach(key string, prep *plan.Prepared, catVer uint64, workers int, workMem int64) *cacheEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.items[key]
	if !ok {
		return nil
	}
	e := el.Value.(*cacheEntry)
	if e.busy || e.prep != nil {
		return nil
	}
	e.prep, e.catVer, e.workers, e.workMem, e.busy = prep, catVer, workers, workMem, true
	return e
}

// release returns a checked-out plan to the cache. The entry pointer
// stays valid after eviction; releasing an evicted entry is a no-op.
func (pc *planCache) release(e *cacheEntry) {
	pc.mu.Lock()
	e.busy = false
	pc.mu.Unlock()
}

// evictLocked drops least-recently-used entries over capacity, skipping
// plans currently checked out.
func (pc *planCache) evictLocked() {
	for el := pc.lru.Back(); el != nil && pc.lru.Len() > pc.max; {
		prev := el.Prev()
		if e := el.Value.(*cacheEntry); !e.busy {
			pc.lru.Remove(el)
			delete(pc.items, e.key)
		}
		el = prev
	}
}

// PreparedStats are cumulative plan-cache counters. A steady-state
// prepared workload shows Hits advancing while Parses and Plans stand
// still: repeated executions do no parse or plan work.
type PreparedStats struct {
	Parses   uint64
	Plans    uint64
	Hits     uint64
	Misses   uint64
	Bypasses uint64
}

// PreparedStats returns the plan-cache counters.
func (db *DB) PreparedStats() PreparedStats {
	return PreparedStats{
		Parses:   db.plans.parses.Load(),
		Plans:    db.plans.plans.Load(),
		Hits:     db.plans.hits.Load(),
		Misses:   db.plans.misses.Load(),
		Bypasses: db.plans.bypasses.Load(),
	}
}
