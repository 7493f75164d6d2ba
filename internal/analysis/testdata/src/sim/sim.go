// Package sim is the analysistest fixture for the determinism
// analyzer: it reproduces, in miniature, each construct the analyzer
// must flag in kernel packages, the constructs it must leave alone, and
// both the reasoned and reasonless forms of the //hmcsim:nondet-ok
// escape hatch.
package sim

import (
	"math/rand" // want `determinism: kernel packages must not import math/rand`
	"time"
)

var _ = rand.Int

// engine stands in for the real event engine: Schedule is an ordered
// sink, so reaching it from a map range is a finding.
type engine struct {
	events []int
}

func (e *engine) Schedule(v int) { e.events = append(e.events, v) }

func wallClock() {
	_ = time.Now() // want `determinism: time\.Now reads the wall clock`
	t0 := time.Unix(0, 0)
	_ = time.Since(t0) // want `determinism: time\.Since reads the wall clock`
}

func wallClockWaived() time.Duration {
	start := time.Now()      //hmcsim:nondet-ok telemetry only, never feeds simulated state
	return time.Since(start) //hmcsim:nondet-ok telemetry only, never feeds simulated state
}

func wallClockBadWaiver() {
	//hmcsim:nondet-ok
	_ = time.Now() // want `needs a reason to suppress`
}

func spawn() {
	go wallClock() // want `determinism: go statement in a kernel package`
}

func spawnWaived() {
	go wallClock() //hmcsim:nondet-ok worker joined before the run returns
}

func choose(a, b chan int) {
	select { // want `determinism: select statement in a kernel package`
	case <-a:
	case <-b:
	}
}

func mapRangeAppend(m map[string]int) []int {
	var out []int
	for _, v := range m { // want `map iteration order is randomized and this loop body appends to ordered output`
		out = append(out, v)
	}
	return out
}

func mapRangeSchedule(e *engine, m map[string]int) {
	for _, v := range m { // want `map iteration order is randomized and this loop body calls Schedule`
		e.Schedule(v)
	}
}

// A read-only reduction over a map is order-insensitive and fine.
func mapRangeReadOnly(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

func mapRangeWaived(e *engine, m map[string]int) {
	//hmcsim:nondet-ok values are commutative counters; order cannot affect results
	for _, v := range m {
		e.Schedule(v)
	}
}

// Ranging a slice is ordered; appending from it is fine.
func sliceRangeAppend(s []int) []int {
	var out []int
	for _, v := range s {
		out = append(out, v)
	}
	return out
}
