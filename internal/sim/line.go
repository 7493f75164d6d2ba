package sim

import "fmt"

// Line is a fixed-order pipeline stage: a FIFO of items, each due at a
// time no earlier than the one before it, that delivers every item to
// one callback bound at construction. A packet engine that finishes
// work in reservation order and a constant-latency delay line are both
// lines.
//
// Only the head of a line sits in the engine's event queue. At takes
// the next ordinary ordering key when the item is scheduled, exactly as
// Engine.At would, but pushes an event only when the line was empty;
// the head's firing pushes the next item under that item's own
// (time, key). Every item therefore fires at the same place in the
// (time, key) order as it would have through Engine.At, so Fired and
// every model result are unchanged, while the queue holds one event per
// line instead of one per item.
//
// Use a Line when the stage's backlog would otherwise sit in the far
// heap: the host controller's packet engine and its 300 ns Tx and Rx
// pipelines hold ~700 of the ~730 events pending on a spread GUPS run,
// all beyond the near ring's horizon, and sorting them one at a time was
// the kernel's largest cost. Stages whose events fall within the near
// ring (link serializers and wires, vault TSV and controller stages)
// keep a Ring and a callback bound once: their events are cheap there
// already, and moving the link and vault stages onto lines measured
// slower.
type Line[T any] struct {
	eng    *Engine
	fn     func(T)
	fireFn func() // l.fire, bound once
	items  Ring[lineItem[T]]
	last   Time // due time of the most recently scheduled item
}

// lineItem is one item of a Line with the (time, key) it fires at.
type lineItem[T any] struct {
	at  Time
	key uint64
	v   T
}

// NewLine returns an empty line on e that delivers each item to fn.
func NewLine[T any](e *Engine, fn func(T)) *Line[T] {
	l := &Line[T]{eng: e, fn: fn}
	l.fireFn = l.fire
	return l
}

// lineOutOfOrder reports the broken-model error out of line, like
// scheduleInPast.
//
//go:noinline
func lineOutOfOrder(t, last Time) {
	panic(fmt.Sprintf("sim: line item at %v before the line's tail at %v", t, last))
}

// At schedules v for delivery at absolute time t. Scheduling in the
// past, or before the item last scheduled on the line, is an error that
// indicates a broken component model, so it panics.
//
//hmcsim:hotpath
func (l *Line[T]) At(t Time, v T) {
	e := l.eng
	if t < e.now {
		scheduleInPast(t, e.now)
	}
	if t < l.last {
		lineOutOfOrder(t, l.last)
	}
	l.last = t
	e.seq++
	l.items.Push(lineItem[T]{at: t, key: e.seq, v: v})
	if l.items.Len() == 1 {
		e.push(event{at: t, key: e.seq, fn: l.fireFn})
		return
	}
	e.held++
}

// fire delivers the head item. The next item, if any, becomes the new
// head and enters the queue before the callback runs, so a callback
// that schedules on its own line appends behind it.
//
//hmcsim:hotpath
func (l *Line[T]) fire() {
	it := l.items.Pop()
	if next, ok := l.items.Peek(); ok {
		l.eng.held--
		l.eng.push(event{at: next.at, key: next.key, fn: l.fireFn})
	}
	l.fn(it.v)
}
