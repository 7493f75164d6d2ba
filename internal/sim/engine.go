// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is measured in integer picoseconds (type Time). Events scheduled for
// the same instant fire in the order they were scheduled, which makes every
// simulation in this repository bit-for-bit reproducible for a given seed.
//
// The kernel is deliberately minimal: an Engine owns a priority queue of
// events, and components interact by scheduling closures. Higher-level
// building blocks (bounded queues, busy servers, token pools) live in the
// other files of this package.
//
// The kernel is also deliberately allocation-free on its steady-state hot
// path: the event queue is a two-tier structure of plain event structs (a
// near-future bucket ring in front of a hand-specialized 4-ary heap; no
// container/heap, no interface boxing), and components that wake up
// repeatedly bind their callback once in a Timer instead of allocating a
// closure per wakeup. Fixed-order stages with a long backlog go through a
// Line, which keeps all but the head item out of the queue.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulation timestamp or duration in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
	Second      Time = 1000 * 1000 * 1000 * 1000
)

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// event is a scheduled callback.
type event struct {
	at  Time
	key uint64 // ordering key; breaks same-instant ties deterministically
	fn  func()
}

// before orders events by time, then by ordering key. For ordinary
// events the key is the engine-local insertion counter, so same-instant
// events fire in scheduling order exactly as before. Channel events
// (see ChanKey) carry a key with the top bit set, which places them
// after every ordinary event of the same instant and orders them by
// (channel, sequence) — an order that depends only on the wiring of the
// model, not on the order in which the events were scheduled.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.key < b.key)
}

// chanBand is the key-space band reserved for channel events.
const chanBand = uint64(1) << 63

// ChanKey builds the wiring-derived ordering key of the seq-th event on
// channel id. Channel IDs come from AllocChanID so they are unique
// within an engine; per-channel sequences keep the (time, key) pair
// unique. The layout leaves 40 bits of sequence per channel — ~10^12
// events, far beyond any run in this repository.
func ChanKey(id, seq uint64) uint64 {
	return chanBand | id<<40 | seq&(1<<40-1)
}

// Near-tier geometry: nearSlots buckets of nearWidth picoseconds each,
// so the ring spans nearHorizon (~131 ns) from the bucket holding now.
// A bucket holds at most nearSlotCap events; on a spread GUPS run fewer
// than 3% of near pushes find their bucket that full.
const (
	nearShift   = 9 // log2 of the bucket width
	nearWidth   = Time(1) << nearShift
	nearSlots   = 256
	nearHorizon = nearSlots * nearWidth
	nearSlotCap = 4
)

// nearSlot is one bucket of the near tier: ev[head:n] are its pending
// events, sorted by (at, key). The storage is inline, so the whole ring
// is allocated once, with the Engine.
type nearSlot struct {
	head, n int32
	ev      [nearSlotCap]event
}

// Engine is a discrete-event simulation kernel.
// The zero value is ready to use.
//
// The event queue has two tiers, in the manner of calendar and ladder
// queues (Brown, CACM 1988; Tang, Goh & Thng, TOMACS 2005):
//
//   - The near tier is a ring of nearSlots buckets, each nearWidth ps
//     wide, covering nearHorizon from the bucket that holds now. Each
//     bucket is a short array kept sorted by (at, key) through insertion
//     from the back, and an occupancy bitmap finds the first non-empty
//     bucket in a few word operations.
//   - The far tier is a 4-ary min-heap in a flat slice that takes every
//     event at or beyond the horizon, and any event whose bucket is
//     full. Compared to the binary heap behind container/heap it does
//     half the sift-down levels, and being typed it avoids interface
//     boxing and indirect Less/Swap calls.
//
// The next event is the smaller of the first bucket's head and the heap
// root by event.before, so the firing order is exactly the (time, key)
// total order of a single heap. Heap events never migrate to the ring:
// as now advances, a far event simply competes with the ring at peek.
//
// The shape fits the simulator's measured delays. About 700 of the ~730
// events pending on a spread GUPS run are the host controller's
// fixed-order work: the packet engine's backlog, due up to ~4 µs ahead,
// and the 300 ns Tx and Rx pipelines. Lines hold those items outside
// the queue behind one head event per stage, and a head's successor is
// usually due a few nanoseconds later. So ~97% of the run's ~680k
// pushes land in the ring, and the queue itself holds ~28 events, ~26
// of them in the ring and ~2 in the heap. Pending still counts all
// ~730.
type Engine struct {
	near    [nearSlots]nearSlot
	nearOcc [nearSlots / 64]uint64 // bit s set ⇔ near[s] is non-empty
	nearN   int                    // events in the near tier
	pq      []event                // far tier: 4-ary min-heap
	now     Time
	seq     uint64
	nfired  uint64
	chanIDs uint64 // channel-ID allocator
	held    int    // Line items queued behind their line's head event

	// Checkpoint state: every ckEvery fired events Run and Drain call
	// ckFn, which may observe progress and request an early stop by
	// returning false. ckEvery == 0 (the default) disables the check, so
	// the uninstrumented loop pays one predictable branch per event and
	// nothing else.
	ckEvery     uint64
	ckLeft      uint64
	ckFn        func() bool
	interrupted bool
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.nfired }

// AllocChanID returns a fresh channel ID, unique within the engine.
// Model construction is single-threaded and deterministic, so the k-th
// allocated ID names the same channel in every build of a model.
func (e *Engine) AllocChanID() uint64 {
	id := e.chanIDs
	e.chanIDs++
	return id
}

// Pending returns the number of scheduled-but-unfired events: those in
// both tiers of the queue and the Line items waiting behind their
// line's head.
func (e *Engine) Pending() int { return e.nearN + len(e.pq) + e.held }

// Schedule runs fn after delay. A negative delay is treated as zero.
//
//hmcsim:hotpath
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// scheduleInPast reports the broken-model error out of line: the panic
// path is cold by definition, and hoisting it keeps fmt (and the
// boxing its arguments imply) out of the annotated scheduling paths.
//
//go:noinline
func scheduleInPast(t, now Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, now))
}

// At runs fn at absolute time t. Scheduling in the past is an error
// that indicates a broken component model, so it panics.
//
//hmcsim:hotpath
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		scheduleInPast(t, e.now)
	}
	e.seq++
	e.push(event{at: t, key: e.seq, fn: fn})
}

// AtKey runs fn at absolute time t under an explicit ordering key
// (built with ChanKey). Channels use it so that same-instant delivery
// order depends only on the model's wiring. The caller must keep
// (t, key) pairs unique.
//
//hmcsim:hotpath
func (e *Engine) AtKey(t Time, key uint64, fn func()) {
	if t < e.now {
		scheduleInPast(t, e.now)
	}
	e.push(event{at: t, key: key, fn: fn})
}

// push queues ev: in its near bucket if it falls within the horizon of
// the bucket holding now and the bucket has room, on the far-tier heap
// otherwise. A bucket is kept sorted by insertion from the back; events
// usually arrive in time order, so the scan stops at once. The heap
// sift-up uses the hole-then-place form, which moves each displaced
// parent once instead of swapping.
//
//hmcsim:hotpath
func (e *Engine) push(ev event) {
	if ev.at-e.now&^(nearWidth-1) < nearHorizon {
		i := int(ev.at>>nearShift) & (nearSlots - 1)
		if s := &e.near[i]; s.n < nearSlotCap {
			j := s.n
			for j > s.head && ev.before(&s.ev[j-1]) {
				s.ev[j] = s.ev[j-1]
				j--
			}
			s.ev[j] = ev
			s.n++
			e.nearOcc[i>>6] |= 1 << (i & 63)
			e.nearN++
			return
		}
	}
	pq := append(e.pq, ev)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev.before(&pq[parent]) {
			break
		}
		pq[i] = pq[parent]
		i = parent
	}
	pq[i] = ev
	e.pq = pq
}

// peek returns the earliest pending event, nil if none, and the near
// bucket that holds it (-1 when it is the heap root). The first
// non-empty bucket is the first set occupancy bit at or after now's
// bucket in ring order; every near event lies within one horizon of
// now's bucket, so ring order is time order.
//
//hmcsim:hotpath
func (e *Engine) peek() (*event, int) {
	var root *event
	if len(e.pq) > 0 {
		root = &e.pq[0]
	}
	if e.nearN == 0 {
		return root, -1
	}
	cur := int(e.now>>nearShift) & (nearSlots - 1)
	w := cur >> 6
	i := -1
	if m := e.nearOcc[w] >> (cur & 63); m != 0 {
		i = cur + bits.TrailingZeros64(m)
	} else {
		for k := 1; k <= len(e.nearOcc); k++ {
			// k == len(e.nearOcc) revisits w: the bits below cur.
			ww := (w + k) & (len(e.nearOcc) - 1)
			if m := e.nearOcc[ww]; m != 0 {
				i = ww<<6 + bits.TrailingZeros64(m)
				break
			}
		}
	}
	s := &e.near[i]
	if head := &s.ev[s.head]; root == nil || head.before(root) {
		return head, i
	}
	return root, -1
}

// pop removes and returns the head of near bucket i, or the heap root
// when i is negative.
//
//hmcsim:hotpath
func (e *Engine) pop(i int) event {
	if i >= 0 {
		s := &e.near[i]
		ev := s.ev[s.head]
		s.ev[s.head] = event{} // drop the closure reference so the GC can collect it
		s.head++
		if s.head == s.n {
			s.head, s.n = 0, 0
			e.nearOcc[i>>6] &^= 1 << (i & 63)
		}
		e.nearN--
		return ev
	}
	pq := e.pq
	root := pq[0]
	n := len(pq) - 1
	last := pq[n]
	pq[n] = event{} // drop the closure reference so the GC can collect it
	e.pq = pq[:n]
	if n > 0 {
		pq = pq[:n]
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			// Smallest of up to four children.
			min := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if pq[j].before(&pq[min]) {
					min = j
				}
			}
			if !pq[min].before(&last) {
				break
			}
			pq[i] = pq[min]
			i = min
		}
		pq[i] = last
	}
	return root
}

// step executes the next event if it is due at or before until, and
// reports whether one ran.
//
//hmcsim:hotpath
func (e *Engine) step(until Time) bool {
	next, i := e.peek()
	if next == nil || next.at > until {
		return false
	}
	ev := e.pop(i)
	e.now = ev.at
	e.nfired++
	ev.fn()
	return true
}

// maxTime is the far-future sentinel Step and Drain run until: beyond
// any reachable simulation timestamp.
const maxTime = Time(1) << 62

// Step executes the next event, if any, and reports whether one ran.
//
//hmcsim:hotpath
func (e *Engine) Step() bool { return e.step(maxTime) }

// DefaultCheckpointEvery is the checkpoint cadence used when
// SetCheckpoint is given a non-nil callback with a zero interval: large
// enough that the countdown branch is noise in the event loop, small
// enough that cancellation lands within a few hundred microseconds of
// wall clock.
const DefaultCheckpointEvery = 8192

// SetCheckpoint installs fn to run every `every` fired events during Run
// and Drain. Returning false interrupts the loop — the mechanism behind
// context cancellation mid-simulation and streamed progress reporting.
// A nil fn removes the checkpoint; a zero interval with a non-nil fn
// selects DefaultCheckpointEvery (a zero interval used to silently
// disable the callback, which turned "use the default cadence" calls
// into no cancellation at all). The callback never runs mid-event and
// must not allocate if the caller relies on the kernel's 0 allocs/op
// guarantee.
func (e *Engine) SetCheckpoint(every uint64, fn func() bool) {
	if fn == nil {
		e.ckEvery, e.ckLeft, e.ckFn = 0, 0, nil
		return
	}
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	e.ckEvery, e.ckLeft, e.ckFn = every, every, fn
}

// Interrupted reports whether the last Run or Drain stopped early at a
// checkpoint. Interrupted runs leave the simulation mid-flight; their
// results are partial and must be discarded.
func (e *Engine) Interrupted() bool { return e.interrupted }

// checkpoint counts down to the next installed checkpoint and reports
// whether the loop should stop. Hot-path shape: the common case is two
// compares and a decrement.
//
//hmcsim:hotpath
func (e *Engine) checkpoint() (stop bool) {
	if e.ckEvery == 0 {
		return false
	}
	if e.ckLeft--; e.ckLeft > 0 {
		return false
	}
	e.ckLeft = e.ckEvery
	if e.ckFn() {
		return false
	}
	e.interrupted = true
	return true
}

// Run executes events until the queue is empty or the next event would
// fire after the until timestamp. It returns the time at which it stopped.
// Events exactly at the until timestamp are executed. An installed
// checkpoint may interrupt the loop early (see SetCheckpoint), in which
// case the clock is left at the last fired event rather than advanced
// to until.
func (e *Engine) Run(until Time) Time {
	e.interrupted = false
	for e.step(until) {
		if e.checkpoint() {
			return e.now
		}
	}
	if e.now < until {
		e.now = until
	}
	return e.now
}

// Drain executes all remaining events regardless of time. It is intended
// for tests and for letting in-flight transactions complete after a
// measurement window closes. Like Run, an installed checkpoint may
// interrupt it early.
func (e *Engine) Drain() {
	e.interrupted = false
	for e.Step() {
		if e.checkpoint() {
			return
		}
	}
}

// Timer is a reusable event handle: the callback is bound once at
// construction, so rescheduling the same wakeup — a port's clock tick, a
// router's delivery hop, a bank's ready edge — costs one queue push and no
// allocation. Components that used to write eng.Schedule(d, func() { ... })
// on their hot path hold a Timer instead.
//
// A Timer may be scheduled while already pending; each schedule is an
// independent firing, exactly as if the function were passed to
// Engine.At directly.
type Timer struct {
	eng *Engine
	fn  func()
}

// NewTimer binds fn to a reusable handle on e.
func (e *Engine) NewTimer(fn func()) *Timer { return &Timer{eng: e, fn: fn} }

// At schedules the timer's callback at absolute time t.
//
//hmcsim:hotpath
func (t *Timer) At(at Time) { t.eng.At(at, t.fn) }

// After schedules the timer's callback delay from now. A negative delay
// is treated as zero.
//
//hmcsim:hotpath
func (t *Timer) After(delay Time) { t.eng.Schedule(delay, t.fn) }

// Clock describes a fixed-frequency clock domain and converts between
// cycles and simulation time.
type Clock struct {
	Period Time // duration of one cycle
}

// NewClockHz builds a Clock from a frequency in hertz.
func NewClockHz(hz float64) Clock {
	return Clock{Period: Time(float64(Second)/hz + 0.5)}
}

// Cycles converts a cycle count to a duration.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.Period }

// Next returns the first clock edge at or after t.
func (c Clock) Next(t Time) Time {
	if c.Period <= 0 {
		return t
	}
	rem := t % c.Period
	if rem == 0 {
		return t
	}
	return t + c.Period - rem
}
