package engine

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sql"
)

// preparedCacheSize bounds the parse cache. Entries are small (an
// AST), so the limit exists to cap pathological workloads that generate
// unbounded distinct statement texts, not memory in the steady state.
const preparedCacheSize = 128

// parseCache is the bound statements' parse cache: the normalized
// statement text (normalizeStatement) maps to a parsed, read-only AST.
// Plans are not cached — every execution plans fresh against its own
// snapshot with its arguments already bound, so a plan is never shared.
type parseCache struct {
	mu    sync.Mutex
	max   int
	lru   *list.List // of *cacheEntry, front = most recently used
	items map[string]*list.Element
	// parsing holds the parse in flight for each key not yet cached.
	parsing map[string]*parseCall

	parses atomic.Uint64 // statements actually parsed
	hits   atomic.Uint64 // lookups served by a cached parse
	misses atomic.Uint64 // lookups that parsed, or waited for a parse
}

type cacheEntry struct {
	key       string
	st        sql.Statement
	numParams int
}

// parseCall is one in-flight parse; its fields are set before done
// closes and read only after.
type parseCall struct {
	done      chan struct{}
	st        sql.Statement
	numParams int
	err       error
}

func newParseCache(max int) *parseCache {
	return &parseCache{max: max, lru: list.New(), items: make(map[string]*list.Element), parsing: make(map[string]*parseCall)}
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

// parse returns the cached AST for text, parsing and caching it on a
// miss. The AST is read-only and shared freely across executions. The
// parse is single-flight per key: concurrent first executions of one
// statement wait for a single parse instead of each parsing it.
func (pc *parseCache) parse(text string) (sql.Statement, int, error) {
	key := normalizeStatement(text)
	pc.mu.Lock()
	if el, ok := pc.items[key]; ok {
		e := el.Value.(*cacheEntry)
		pc.lru.MoveToFront(el)
		st, n := e.st, e.numParams
		pc.mu.Unlock()
		pc.hits.Add(1)
		return st, n, nil
	}
	pc.misses.Add(1)
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
		for pc.lru.Len() > pc.max {
			delete(pc.items, pc.lru.Remove(pc.lru.Back()).(*cacheEntry).key)
		}
	}
	pc.mu.Unlock()
	close(c.done)
	return c.st, c.numParams, c.err
}

// PreparedStats are cumulative parse-cache counters. A steady-state
// prepared workload shows Hits advancing while Parses stands still:
// repeated executions do no parse work.
type PreparedStats struct {
	Parses uint64
	Hits   uint64
	Misses uint64
}

// PreparedStats returns the parse-cache counters.
func (db *DB) PreparedStats() PreparedStats {
	return PreparedStats{
		Parses: db.parseCache.parses.Load(),
		Hits:   db.parseCache.hits.Load(),
		Misses: db.parseCache.misses.Load(),
	}
}
