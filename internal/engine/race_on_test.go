//go:build race

package engine

// raceEnabled reports a race-detector build. Its instrumentation
// inflates the overheads TestCounterOverhead and TestTraceOverhead
// budget (an instrumented atomic costs an order of magnitude more), so
// under -race they measure and log but do not enforce.
const raceEnabled = true
