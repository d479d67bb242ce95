package sched

import (
	"fmt"
	"sync"
)

// MemBudget is a byte-granular memory budget, the accounting side of
// out-of-core execution. The engine owns one pool-level budget (the
// process-wide cap, DB.SetMemoryBudget); every statement gets a child
// grant capped at its work_mem whose reservations also draw down the
// pool, so concurrent statements share the pool instead of each
// assuming it is alone.
//
// Reservations are all-or-nothing and never block: a blocking operator
// asks before it buffers, and a denial is the signal to spill (sorts,
// joins, aggregates) or to fail with ErrOutOfMemoryBudget
// (operators with no spill path). Zero capacity means unlimited and a
// nil *MemBudget grants everything, so unbudgeted embedded engines pay
// nothing — the same idiom as Budget.
type MemBudget struct {
	mu        sync.Mutex
	capacity  int64 // 0 = unlimited
	inUse     int64
	highWater int64
	denials   uint64 // reservations denied (each one is a spill trigger)
	parent    *MemBudget
}

// NewMemBudget returns a budget with the given byte capacity.
// capacity <= 0 means unlimited.
func NewMemBudget(capacity int64) *MemBudget {
	if capacity < 0 {
		capacity = 0
	}
	return &MemBudget{capacity: capacity}
}

// StatementMem returns a per-statement grant of up to workMem bytes
// whose reservations also draw from the pool (either may be nil /
// unlimited). A reservation succeeds only when both the grant and the
// pool have room.
func StatementMem(pool *MemBudget, workMem int64) *MemBudget {
	if workMem < 0 {
		workMem = 0
	}
	if workMem == 0 && pool == nil {
		return nil // fully unlimited: skip the accounting entirely
	}
	return &MemBudget{capacity: workMem, parent: pool}
}

// Reserve requests n more bytes. It returns false — reserving nothing —
// when the grant or any ancestor pool would exceed its capacity; the
// caller then spills or fails. A nil budget always grants.
func (m *MemBudget) Reserve(n int64) bool {
	if m == nil || n <= 0 {
		return true
	}
	m.mu.Lock()
	if m.capacity > 0 && m.inUse+n > m.capacity {
		m.denials++
		m.mu.Unlock()
		return false
	}
	m.mu.Unlock()
	// Child-to-parent order is acyclic, so holding no lock across the
	// parent call keeps the ordering trivially safe; the re-check below
	// closes the race window against concurrent reservations.
	if !m.parent.Reserve(n) {
		m.mu.Lock()
		m.denials++
		m.mu.Unlock()
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.capacity > 0 && m.inUse+n > m.capacity {
		m.denials++
		m.mu.Unlock()
		m.parent.Release(n)
		m.mu.Lock()
		return false
	}
	m.inUse += n
	if m.inUse > m.highWater {
		m.highWater = m.inUse
	}
	return true
}

// Release returns n bytes to the grant and every ancestor pool.
// Over-releasing clamps to zero rather than corrupting the gauge.
func (m *MemBudget) Release(n int64) {
	if m == nil || n <= 0 {
		return
	}
	m.mu.Lock()
	m.inUse -= n
	if m.inUse < 0 {
		m.inUse = 0
	}
	m.mu.Unlock()
	m.parent.Release(n)
}

// Resize changes the capacity; n <= 0 means unlimited. Shrinking does
// not reclaim bytes already reserved.
func (m *MemBudget) Resize(n int64) {
	if m == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	m.mu.Lock()
	m.capacity = n
	m.mu.Unlock()
}

// Capacity returns the current capacity (0 = unlimited).
func (m *MemBudget) Capacity() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.capacity
}

// InUse returns the bytes currently reserved.
func (m *MemBudget) InUse() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inUse
}

// HighWater returns the maximum concurrent reservation observed.
func (m *MemBudget) HighWater() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.highWater
}

// Describe renders the budget's state as one compact line — the
// memory-grant span detail in statement traces.
func (m *MemBudget) Describe() string {
	if m == nil {
		return "unlimited"
	}
	m.mu.Lock()
	c, u, hw, d := m.capacity, m.inUse, m.highWater, m.denials
	m.mu.Unlock()
	cap := "unlimited"
	if c > 0 {
		cap = fmt.Sprintf("%d", c)
	}
	return fmt.Sprintf("cap=%s in_use=%d high_water=%d denials=%d", cap, u, hw, d)
}

// Denials returns how many reservations were turned away — each one a
// spill (or out-of-memory-budget error) somewhere in the executor.
func (m *MemBudget) Denials() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.denials
}
