// Package harness holds the determinism-cone cases of the hazard
// tests. Every exported Run* function here is a det root by rule (the
// package path ends in internal/harness), so each case is reachable on
// its own. A "// want <check>..." comment marks every line where the
// analysis must report; every other line must stay quiet.
package harness

import (
	"math/rand"
	"time"
)

// RunMapRangeLocalMake ranges over a locally made map.
func RunMapRangeLocalMake() int {
	m := make(map[int]int)
	best := 0
	for k := range m { // want map-range
		if k > best {
			best = k
		}
	}
	return best
}

type sched struct {
	queues map[int][]int
}

// RunMapRangeStructField ranges over a map-typed struct field.
func RunMapRangeStructField(s *sched) int {
	for t := range s.queues { // want map-range
		return t
	}
	return -1
}

// RunMapRangeAllowed carries a line-level allow above the range.
func RunMapRangeAllowed() int {
	m := make(map[int]int)
	n := 0
	//drslint:allow map-range -- pure count, order-insensitive
	for range m {
		n++
	}
	return n
}

// RunSliceRange ranges over a slice, which is ordered.
func RunSliceRange(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// RunWallClockTimerSurface touches the clock-reading and timer API.
func RunWallClockTimerSurface(d time.Duration) {
	_ = time.Since(time.Now()) // want wallclock wallclock
	t := time.NewTimer(d)      // want wallclock
	defer t.Stop()
	<-time.Tick(d) // want wallclock
}

// RunGlobalRand draws from the process-global RNG.
func RunGlobalRand() int {
	return rand.Intn(10) // want global-rand
}

// RunSeededRand draws from a seeded generator, which is deterministic.
func RunSeededRand() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(10)
}

// stampedCells returns a map keyed by the stamp, so one line can hold
// both a map range and a wall-clock read.
func stampedCells(t time.Time) map[int64]int {
	return map[int64]int{t.UnixNano(): 1}
}

// RunAllowMultipleChecksOneLine: one directive naming two checks
// suppresses both on the next line.
func RunAllowMultipleChecksOneLine() int64 {
	var sum int64
	//drslint:allow map-range wallclock -- seed helper: order-insensitive, stamps a log only
	for k := range stampedCells(time.Now()) {
		sum += k
	}
	return sum
}

// RunAllowTrailingOnStatementLine: the directive trails the flagged
// line itself.
func RunAllowTrailingOnStatementLine() int {
	m := make(map[int]int)
	n := 0
	for range m { //drslint:allow map-range -- pure count, order-insensitive
		n++
	}
	return n
}

// RunAllowReasonWithParenthetical: free text after "--" is ignored
// entirely, including further dashes and check names.
func RunAllowReasonWithParenthetical() int64 {
	var sum int64
	//drslint:allow map-range -- order-insensitive (the wallclock read stays flagged -- see DESIGN)
	for k := range stampedCells(time.Now()) { // want wallclock
		sum += k
	}
	return sum
}

// RunAllowInBlockCommentInert: the grammar is line comments only, so a
// block comment quoting the directive suppresses nothing.
func RunAllowInBlockCommentInert() int {
	m := make(map[int]int)
	n := 0
	/* //drslint:allow map-range -- not a real directive */
	for range m { // want map-range
		n++
	}
	return n
}
