package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10*Nanosecond, func() { order = append(order, 2) })
	e.Schedule(5*Nanosecond, func() { order = append(order, 1) })
	e.Schedule(10*Nanosecond, func() { order = append(order, 3) })
	e.Run(Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(42*Nanosecond, func() { order = append(order, i) })
	}
	e.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestEngineNowAdvances(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(7*Microsecond, func() { at = e.Now() })
	e.Run(Second)
	if at != 7*Microsecond {
		t.Fatalf("Now inside event = %v, want 7us", at)
	}
	if e.Now() != Second {
		t.Fatalf("Now after Run = %v, want 1s", e.Now())
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10*Nanosecond, func() { fired++ })
	e.At(11*Nanosecond, func() { fired++ })
	e.Run(10 * Nanosecond)
	if fired != 1 {
		t.Fatalf("fired = %d at boundary, want 1 (inclusive until)", fired)
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	e.Drain()
	if fired != 2 {
		t.Fatalf("fired after drain = %d, want 2", fired)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			e.Schedule(Nanosecond, rec)
		}
	}
	e.Schedule(0, rec)
	e.Run(Second)
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if e.Fired() != 50 {
		t.Fatalf("fired = %d, want 50", e.Fired())
	}
}

// TestEnginePendingAcrossTiers checks that Pending counts both tiers of
// the queue: it must equal scheduled minus fired whether the events sit
// in the near ring, the far heap, or both.
func TestEnginePendingAcrossTiers(t *testing.T) {
	cases := []struct {
		name       string
		delays     []Time
		near, far  bool
		fireBefore Time
	}{
		{"near only", []Time{0, 1, 511, 512, 40 * Nanosecond, nearHorizon - 1}, true, false, 600},
		{"far only", []Time{nearHorizon, nearHorizon + 1, 3 * Microsecond, Millisecond}, false, true, 2 * Microsecond},
		{"mixed", []Time{0, 700, nearHorizon - 1, nearHorizon, 4 * Microsecond, 9 * Microsecond}, true, true, 5 * Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			fired := 0
			for _, d := range tc.delays {
				e.Schedule(d, func() { fired++ })
			}
			if (e.nearN > 0) != tc.near || (len(e.pq) > 0) != tc.far {
				t.Fatalf("tiers: near=%d far=%d, want near=%v far=%v", e.nearN, len(e.pq), tc.near, tc.far)
			}
			if got := e.Pending(); got != len(tc.delays) {
				t.Fatalf("Pending() = %d before any firing, want %d", got, len(tc.delays))
			}
			e.Run(tc.fireBefore)
			if fired == 0 || fired == len(tc.delays) {
				t.Fatalf("Run(%v) fired %d of %d; the case should fire some but not all", tc.fireBefore, fired, len(tc.delays))
			}
			if got := e.Pending(); got != len(tc.delays)-fired {
				t.Fatalf("Pending() = %d after %d of %d fired", got, fired, len(tc.delays))
			}
			e.Drain()
			if got := e.Pending(); got != 0 || fired != len(tc.delays) {
				t.Fatalf("after Drain: Pending() = %d, fired %d of %d", got, fired, len(tc.delays))
			}
		})
	}
}

// TestEngineSteadyStateDoesNotAllocate pins the serial kernel's
// allocation contract at the measured delay mix and queue size: once
// the near ring has lapped many times and the heap has reached its
// working size, scheduling and firing allocate nothing. Near buckets
// that grew lazily would fail this, allocating once per bucket as the
// ring laps.
func TestEngineSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	newDelayMix(e, mixPending)
	e.Run(20 * Microsecond) // ~150 laps of the ring
	if p := e.Pending(); p != mixPending || e.nearN == 0 || len(e.pq) == 0 {
		t.Fatalf("pending %d (near %d, far %d); want %d across both tiers", p, e.nearN, len(e.pq), mixPending)
	}
	start := e.Fired()
	allocs := testing.AllocsPerRun(20, func() {
		e.Run(e.Now() + 10*Microsecond)
	})
	if allocs != 0 {
		t.Errorf("steady-state Run: %.1f allocs per 10 µs window, want 0", allocs)
	}
	if fired := e.Fired() - start; fired < 100_000 {
		t.Fatalf("measured only %d events", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*Nanosecond, func() {})
	})
	e.Drain()
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.At(10*Nanosecond, func() {
		e.Schedule(-5*Nanosecond, func() {
			if e.Now() != 10*Nanosecond {
				t.Errorf("clamped event fired at %v, want 10ns", e.Now())
			}
		})
	})
	e.Drain()
}

func TestClockNext(t *testing.T) {
	c := Clock{Period: 800} // 1.25 GHz in ps
	cases := []struct{ in, want Time }{
		{0, 0}, {1, 800}, {799, 800}, {800, 800}, {801, 1600},
	}
	for _, tc := range cases {
		if got := c.Next(tc.in); got != tc.want {
			t.Errorf("Next(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestClockNextProperty(t *testing.T) {
	c := NewClockHz(187.5e6)
	f := func(raw uint32) bool {
		t0 := Time(raw)
		edge := c.Next(t0)
		return edge >= t0 && edge%c.Period == 0 && edge-t0 < c.Period
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewClockHz(t *testing.T) {
	c := NewClockHz(1.25e9)
	if c.Period != 800 {
		t.Fatalf("1.25GHz period = %dps, want 800ps", c.Period)
	}
	c = NewClockHz(187.5e6)
	if c.Period != 5333 {
		t.Fatalf("187.5MHz period = %dps, want 5333ps", c.Period)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{2500000, "2.500us"},
		{3 * Millisecond, "3.000ms"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tc.in), got, tc.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Errorf("Microseconds = %v, want 1.5", got)
	}
	if got := (2 * Microsecond).Nanoseconds(); got != 2000 {
		t.Errorf("Nanoseconds = %v, want 2000", got)
	}
	if got := (Second / 2).Seconds(); got != 0.5 {
		t.Errorf("Seconds = %v, want 0.5", got)
	}
}
