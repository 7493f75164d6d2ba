package sim

import "testing"

// TestLineAtOutOfOrderPanics checks that a line rejects an item due
// before its tail or before now, like Engine.At rejects the past, and
// accepts one due at the same time as its tail.
func TestLineAtOutOfOrderPanics(t *testing.T) {
	cases := []struct {
		name  string
		prep  func(e *Engine, l *Line[int])
		at    Time
		panic bool
	}{
		{"before tail", func(e *Engine, l *Line[int]) { l.At(10*Nanosecond, 0) }, 5 * Nanosecond, true},
		{"before now", func(e *Engine, l *Line[int]) { e.Run(10 * Nanosecond) }, 5 * Nanosecond, true},
		{"at tail", func(e *Engine, l *Line[int]) { l.At(10*Nanosecond, 0) }, 10 * Nanosecond, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			l := NewLine(e, func(int) {})
			tc.prep(e, l)
			defer func() {
				if got := recover() != nil; got != tc.panic {
					t.Fatalf("At(%v) panicked = %v, want %v", tc.at, got, tc.panic)
				}
			}()
			l.At(tc.at, 1)
		})
	}
}

// TestLinePendingCountsHeldItems checks that Pending counts every line
// item, not just the head the event queue holds, through a
// checkpoint-interrupted Drain and its resume.
func TestLinePendingCountsHeldItems(t *testing.T) {
	e := NewEngine()
	var got []int
	l := NewLine(e, func(v int) { got = append(got, v) })
	for i := 0; i < 10; i++ {
		l.At(Time(i/2)*Microsecond, i) // pairs of equal-time items
	}
	e.At(3*Microsecond, func() { got = append(got, -1) })
	if p := e.Pending(); p != 11 {
		t.Fatalf("Pending() = %d with 10 line items and 1 event, want 11", p)
	}
	e.SetCheckpoint(4, func() bool { return false })
	e.Drain()
	if !e.Interrupted() || len(got) != 4 {
		t.Fatalf("Drain with a checkpoint every 4 events: interrupted=%v after %d events", e.Interrupted(), len(got))
	}
	if p := e.Pending(); p != 7 || l.items.Len() != 6 {
		t.Fatalf("after the interrupt: Pending() = %d, line holds %d; want 7 and 6", p, l.items.Len())
	}
	e.SetCheckpoint(0, nil)
	e.Drain()
	if p := e.Pending(); p != 0 || l.items.Len() != 0 {
		t.Fatalf("after Drain: Pending() = %d, line holds %d", p, l.items.Len())
	}
	// The event at 3 µs was scheduled after every line item, so it
	// follows the two items due then.
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, -1, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestLineSteadyStateDoesNotAllocate pins the allocation contract of a
// line at the packet engine's standing backlog: once the line's ring has
// grown to its working size, scheduling and firing allocate nothing.
func TestLineSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	newLineBacklog(e, false)
	e.Run(20 * Microsecond)
	if p := e.Pending(); p != backlogItems+nearActors {
		t.Fatalf("pending %d, want %d line items and %d near actors", p, backlogItems, nearActors)
	}
	start := e.Fired()
	allocs := testing.AllocsPerRun(20, func() {
		e.Run(e.Now() + 10*Microsecond)
	})
	if allocs != 0 {
		t.Errorf("steady-state Run: %.1f allocs per 10 µs window, want 0", allocs)
	}
	if fired := e.Fired() - start; fired < 50_000 {
		t.Fatalf("measured only %d events", fired)
	}
}
