package sim

import (
	"strconv"
	"testing"
)

// Kernel micro-benchmarks. The acceptance bar for the allocation-free
// kernel is 0 allocs/op on every steady-state path here: event
// schedule/fire, timer ticks, and queue push/pop at any occupancy.
// Run with: go test -bench=. -benchmem ./internal/sim/...

// BenchmarkEngineScheduleFire measures one schedule + one fire against a
// populated heap, the kernel's innermost loop. The pending-event count
// stays constant, so the heap never grows mid-measurement.
func BenchmarkEngineScheduleFire(b *testing.B) {
	for _, pending := range []int{1, 64, 4096} {
		b.Run(benchName("pending", pending), func(b *testing.B) {
			eng := NewEngine()
			fn := func() {}
			for i := 0; i < pending; i++ {
				eng.Schedule(Time(i), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Schedule(Time(pending), fn)
				eng.Step()
			}
		})
	}
}

// mixPending is the standing event count of a spread GUPS run.
const mixPending = 730

// newDelayMix schedules n self-rescheduling actors on eng whose delays
// follow the shape measured on a spread GUPS run: ~82% of reschedules
// are 0.25–65 ns and the rest a 0.26–4 µs tail. The tail holds most of
// the pending events, so the heap stays populated and the near ring
// sparse, as in the full simulator. Each actor draws from a
// deterministic LCG and reschedules through a pre-bound Timer, so the
// model itself never allocates after construction.
func newDelayMix(eng *Engine, n int) {
	state := uint64(1)
	draw := func() Time {
		state = state*6364136223846793005 + 1442695040888963407
		r := state >> 33
		if r%100 < 82 {
			return 250 + Time(r%64_750)
		}
		return 262_000 + Time(r%3_738_000)
	}
	for i := 0; i < n; i++ {
		var t *Timer
		t = eng.NewTimer(func() { t.After(draw()) })
		t.After(draw())
	}
}

// BenchmarkEngineScheduleFireMix measures one fire + one reschedule at
// the measured delay mix and standing queue size, where the monotone
// delays of BenchmarkEngineScheduleFire never exercise sift-up or the
// near ring's sorted insert.
func BenchmarkEngineScheduleFireMix(b *testing.B) {
	eng := NewEngine()
	newDelayMix(eng, mixPending)
	eng.Run(20 * Microsecond) // ~150 laps of the ring; the heap reaches its working size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkEngineTimerTick measures a self-rescheduling Timer, the
// pattern the host ports use for their clock ticks: one queue push and
// one fire per tick, no closure per wakeup.
func BenchmarkEngineTimerTick(b *testing.B) {
	eng := NewEngine()
	var t *Timer
	t = eng.NewTimer(func() { t.After(100) })
	t.After(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkEngineRunCheckpoint measures the event loop through Run with
// the observability checkpoint disabled (the default: one predictable
// branch per event) and installed but idle — both must stay 0 allocs/op.
func BenchmarkEngineRunCheckpoint(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			eng := NewEngine()
			var t *Timer
			t = eng.NewTimer(func() { t.After(100) })
			t.After(0)
			if mode == "on" {
				eng.SetCheckpoint(64, func() bool { return true })
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Run(eng.Now() + 100)
			}
		})
	}
}

// BenchmarkQueuePushPop measures one push + one pop at a fixed standing
// occupancy. The slice-based Queue paid an O(occupancy) copy per pop;
// the ring pays O(1) at any depth.
func BenchmarkQueuePushPop(b *testing.B) {
	for _, occ := range []int{0, 16, 128, 1024} {
		b.Run(benchName("occ", occ), func(b *testing.B) {
			q := NewQueue[int](0)
			for i := 0; i < occ; i++ {
				q.Push(0, i)
			}
			// One warm-up cycle so the ring reaches its steady-state size
			// (occupancy+1) before measurement starts.
			q.Push(0, 0)
			q.Pop(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Push(Time(i), i)
				q.Pop(Time(i))
			}
		})
	}
}

// BenchmarkQueueRemoveAt measures the out-of-order removal the vault
// dispatcher uses, at the queue head (best case: one slot shift).
func BenchmarkQueueRemoveAt(b *testing.B) {
	q := NewQueue[int](0)
	for i := 0; i < 128; i++ {
		q.Push(0, i)
	}
	q.Push(0, 0)
	q.RemoveAt(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(Time(i), i)
		q.RemoveAt(Time(i), 0)
	}
}

// BenchmarkRingPushPop measures the raw ring primitive behind Queue and
// the component pipelines.
func BenchmarkRingPushPop(b *testing.B) {
	var r Ring[int]
	for i := 0; i < 8; i++ {
		r.Push(i)
	}
	r.Push(0) // warm-up: the first push past the initial capacity grows the ring
	r.Pop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(i)
		r.Pop()
	}
}

// BenchmarkTokenPoolNotifyRelease measures the blocked-retry cycle:
// a waiter registers, Release fires it, and it re-registers. The waiter
// array is recycled, so the steady state does not allocate.
func BenchmarkTokenPoolNotifyRelease(b *testing.B) {
	p := NewTokenPool(1)
	var again func()
	again = func() {
		if !p.TryAcquire(1) {
			p.Notify(again)
		}
	}
	p.TryAcquire(1)
	p.Notify(again)
	p.Release(1) // warm-up: the first cycle sizes the waiter arrays
	p.Notify(again)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Release(1) // fires the waiter, which re-acquires and blocks anew
		p.Notify(again)
	}
}

func benchName(prefix string, n int) string { return prefix + strconv.Itoa(n) }
