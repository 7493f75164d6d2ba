package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxTime is the far-future sentinel used by Step and the group
// scheduler. It is comfortably beyond any reachable simulation
// timestamp while leaving headroom to add a window without overflow.
const maxTime = Time(1) << 62

// MaxShards bounds the number of shards a Group may have. The model
// partitions at quadrant granularity (4 quadrants + 1 hub shard), so
// this is generous headroom for future multi-cube topologies.
const MaxShards = 16

// globalShardBusy accumulates, per shard index, the wall-clock
// nanoseconds every Group in the process has spent executing events.
// The hmcsimd stats endpoint reports it so operators can see how evenly
// sharded runs spread across cores.
var globalShardBusy [MaxShards]atomic.Int64

// ShardBusyNanos returns a snapshot of cumulative per-shard busy time
// (wall-clock nanoseconds executing events) across all Groups that have
// run in this process. Index 0 is the hub shard.
func ShardBusyNanos() [MaxShards]int64 {
	var out [MaxShards]int64
	for i := range out {
		out[i] = globalShardBusy[i].Load()
	}
	return out
}

// globalShardBarrier is the counterpart of globalShardBusy for time
// spent at window barriers (arrival to release). busy vs barrier is the
// process-wide "was sharding worth it" signal, available without any
// tracer attached.
var globalShardBarrier [MaxShards]atomic.Int64

// ShardBarrierNanos returns cumulative per-shard wall-clock nanoseconds
// spent waiting at lockstep barriers across all Groups in this process.
// Index 0 is the hub shard.
func ShardBarrierNanos() [MaxShards]int64 {
	var out [MaxShards]int64
	for i := range out {
		out[i] = globalShardBarrier[i].Load()
	}
	return out
}

// crossEvent is an event in flight between shards: the (at, key, fn)
// triple destined for another shard's event queue.
type crossEvent struct {
	at  Time
	key uint64
	fn  func()
}

// Group runs several Engines — shards of one model — in conservative
// lockstep. Each shard advances freely inside a safety window equal to
// the minimum cross-shard channel latency (registered via
// ObserveLookahead), then all shards meet at a barrier. Cross-shard
// events travel through single-producer/single-consumer mailboxes and
// are merged into the destination queue at the barrier, at least one
// full window before they fire, so every shard sees exactly the event
// order the serial engine would have produced.
//
// Synchronization contract: shard s's mailbox row boxes[p][s][*] and
// the fields of engine s are written only by the goroutine driving
// shard s during a window. The barrier's atomic arrive/release pair
// orders those writes before any other shard (or the barrier's serial
// section) reads them. Mailboxes are double-buffered by window parity:
// a producer cannot write parity p again until the consumer that
// drains parity p has passed the intervening barrier.
type Group struct {
	engines []*Engine
	window  Time   // min registered cross-shard lookahead
	chanIDs uint64 // group-wide channel-ID allocator (construction time)

	// boxes[parity][src][dst] holds events posted by src for dst during
	// a window of that parity. par[i] is the parity shard i is currently
	// writing (owned by shard i).
	boxes [2][][][]crossEvent
	par   []int

	// Barrier state. mins[i] is shard i's published safe-time bound:
	// min(its queue head, the earliest cross-shard event it posted this
	// window). The last arriver folds them into the global minimum.
	arrived atomic.Int32
	sense   atomic.Uint32
	mins    []Time

	// Per-run parameters and the barrier's decisions, written by run()
	// before spawning workers or by the last arriver inside the barrier,
	// read by everyone after release.
	until Time
	drain bool
	next  Time // next window's end (exclusive)
	stop  bool

	// Checkpoint cadence across all shards: the hub's callback runs at a
	// barrier once total fired events advance by the hub's ckEvery.
	ckFired uint64

	busy    []atomic.Int64 // wall-clock ns executing events, per shard
	barrier []atomic.Int64 // wall-clock ns waiting at barriers, per shard

	trace *GroupTracer // optional lockstep observatory; nil = no hooks

	// Abort protocol: a shard that panics mid-window records the value
	// and raises aborted; spinning siblings poll it so nobody stays
	// parked on a barrier that will never release. run() re-raises the
	// panic on the hub after every goroutine has drained, preserving
	// the serial engine's panic semantics. The group is not reusable
	// after an abort.
	aborted  atomic.Bool
	abortMu  sync.Mutex
	abortVal any
}

// NewGroup builds a group of shards engines, all at time zero. Shard 0
// is the hub: Run and Drain may only be called on it, and the group's
// checkpoint honors the hub engine's SetCheckpoint installation.
func NewGroup(shards int) *Group {
	if shards < 1 {
		shards = 1
	}
	if shards > MaxShards {
		panic(fmt.Sprintf("sim: NewGroup(%d) exceeds MaxShards=%d", shards, MaxShards))
	}
	g := &Group{
		engines: make([]*Engine, shards),
		par:     make([]int, shards),
		mins:    make([]Time, shards),
		busy:    make([]atomic.Int64, shards),
		barrier: make([]atomic.Int64, shards),
	}
	for i := range g.engines {
		g.engines[i] = &Engine{g: g, shard: i, outMin: maxTime}
	}
	for p := 0; p < 2; p++ {
		g.boxes[p] = make([][][]crossEvent, shards)
		for s := range g.boxes[p] {
			g.boxes[p][s] = make([][]crossEvent, shards)
		}
	}
	return g
}

// Shards returns the number of shards in the group.
func (g *Group) Shards() int { return len(g.engines) }

// Engine returns shard i's engine. Shard 0 is the hub.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Window returns the lockstep safety window: the minimum cross-shard
// lookahead registered so far, 0 if none.
func (g *Group) Window() Time { return g.window }

// BusyNanos returns per-shard wall-clock nanoseconds spent executing
// events (not waiting at barriers) since the group was created.
func (g *Group) BusyNanos() []int64 {
	out := make([]int64, len(g.engines))
	for i := range out {
		out[i] = g.busy[i].Load()
	}
	return out
}

// BarrierNanos returns per-shard wall-clock nanoseconds spent at window
// barriers (arrival to release) since the group was created. Together
// with BusyNanos it bounds the useful parallelism of the partition.
func (g *Group) BarrierNanos() []int64 {
	out := make([]int64, len(g.engines))
	for i := range out {
		out[i] = g.barrier[i].Load()
	}
	return out
}

// SetTrace installs (or removes, with nil) the group's lockstep
// observatory. Call between runs only; hooks fire from every shard's
// goroutine during a run.
func (g *Group) SetTrace(t *GroupTracer) { g.trace = t }

// Trace returns the installed lockstep observatory, nil if none.
func (g *Group) Trace() *GroupTracer { return g.trace }

// observeLookahead narrows the lockstep window to d if smaller. Called
// during single-threaded model construction via Engine.ObserveLookahead.
func (g *Group) observeLookahead(d Time) {
	if d <= 0 {
		panic("sim: cross-shard channel with non-positive lookahead")
	}
	if g.window == 0 || d < g.window {
		g.window = d
	}
}

// post appends a cross-shard event to the src→dst mailbox of the
// current window's parity. Only shard src's goroutine calls this.
//
//hmcsim:hotpath
func (g *Group) post(src, dst int, at Time, key uint64, fn func()) {
	b := &g.boxes[g.par[src]][src][dst]
	*b = append(*b, crossEvent{at: at, key: key, fn: fn})
}

// fired sums fired events across shards. Safe only between runs or from
// the barrier's serial section, where every other shard is parked.
func (g *Group) fired() uint64 {
	var total uint64
	for _, e := range g.engines {
		total += e.nfired
	}
	return total
}

// run is the group counterpart of Engine.Run (drain=false) and
// Engine.Drain (drain=true): it drives all shards in lockstep windows
// until no shard has an event at or before until, then leaves every
// shard's clock exactly where the serial engine would have left its
// single clock. It returns the hub's time.
func (g *Group) run(hub *Engine, until Time, drain bool) Time {
	if hub.shard != 0 {
		panic("sim: Run/Drain called on a non-hub shard of a group")
	}
	if g.window <= 0 {
		panic("sim: group run with no registered lookahead; wire cross-shard channels first")
	}
	for _, e := range g.engines {
		e.interrupted = false
	}

	// Pre-window check, still single-threaded: mailboxes are empty
	// between runs, so the global minimum is over queue heads alone.
	m := maxTime
	for _, e := range g.engines {
		if next, _ := e.peek(); next != nil && next.at < m {
			m = next.at
		}
	}
	if drain {
		if m == maxTime {
			g.settleDrain()
			return hub.now
		}
		until = maxTime
	} else if m > until {
		g.settleRun(until)
		return hub.now
	}

	g.until, g.drain, g.stop = until, drain, false
	g.next = m + g.window
	g.arrived.Store(0)
	g.sense.Store(0)
	g.aborted.Store(false)
	g.abortVal = nil

	var wg sync.WaitGroup
	for i := 1; i < len(g.engines); i++ {
		wg.Add(1)
		//hmcsim:nondet-ok the Group lockstep machinery itself: shards join a sense-reversing barrier every window
		go func(i int) {
			// recoverShard is registered after Done so it runs first:
			// the abort flag is fully published before the hub can
			// pass wg.Wait.
			defer wg.Done()
			defer g.recoverShard()
			g.shardLoop(i)
		}(i)
	}
	func() {
		defer g.recoverShard()
		g.shardLoop(0)
	}()
	wg.Wait()
	if g.aborted.Load() {
		v := g.abortVal
		g.abortVal = nil
		panic(v)
	}
	return hub.now
}

// recoverShard catches a panic escaping a shard's loop, records the
// first panic value, and raises the abort flag so sibling shards
// spinning at the barrier unpark and drain instead of waiting forever
// for an arrival that will never come.
func (g *Group) recoverShard() {
	if r := recover(); r != nil {
		g.abortMu.Lock()
		if g.abortVal == nil {
			g.abortVal = r
		}
		g.abortMu.Unlock()
		g.aborted.Store(true)
	}
}

// settleRun advances every shard's clock to until, as the serial engine
// does when it runs out of events before the deadline.
func (g *Group) settleRun(until Time) {
	for _, e := range g.engines {
		if e.now < until {
			e.now = until
		}
	}
}

// settleDrain advances every shard's clock to the time of the globally
// last executed event, matching the serial engine's clock after Drain.
func (g *Group) settleDrain() {
	var mx Time
	for _, e := range g.engines {
		if e.now > mx {
			mx = e.now
		}
	}
	for _, e := range g.engines {
		e.now = mx
	}
}

// shardLoop drives one shard: execute a window, publish the safe-time
// bound, meet the barrier, merge the inbox, repeat until the barrier
// declares the run over.
//
//hmcsim:hotpath
func (g *Group) shardLoop(i int) {
	e := g.engines[i]
	n := int32(len(g.engines))
	until := g.until
	parity := g.par[i]
	sense := uint32(0)
	for {
		// The window runs events before its end (exclusive) and not
		// after until: through last, inclusive.
		last := g.next - 1
		if until < last {
			last = until
		}
		e.outMin = maxTime
		nf := e.nfired
		if next, _ := e.peek(); next != nil && next.at <= last {
			start := time.Now() //hmcsim:nondet-ok busy-time telemetry; wall clock never feeds simulated state
			for e.step(last) {
			}
			d := int64(time.Since(start)) //hmcsim:nondet-ok busy-time telemetry; wall clock never feeds simulated state
			g.busy[i].Add(d)
			globalShardBusy[i].Add(d)
		}
		g.trace.OnWindow(i, int64(e.now), int(e.nfired-nf))
		m := e.outMin
		if next, _ := e.peek(); next != nil && next.at < m {
			m = next.at
		}
		g.mins[i] = m

		// Sense-reversing barrier: the last arriver runs the serial
		// section (checkpoint, stop/next-window decision), then flips
		// the sense to release everyone. The arrive-to-release span is
		// the shard's barrier wait; for the last arriver that is the
		// serial section it runs, keeping per-shard totals comparable.
		bStart := time.Now() //hmcsim:nondet-ok barrier-stall telemetry; wall clock never feeds simulated state
		sense ^= 1
		if g.arrived.Add(1) == n {
			g.windowBarrier()
			g.arrived.Store(0)
			g.sense.Store(sense)
		} else {
			for spins := 0; g.sense.Load() != sense; spins++ {
				if g.aborted.Load() {
					return
				}
				if spins > 256 {
					runtime.Gosched()
				}
			}
		}
		wait := int64(time.Since(bStart)) //hmcsim:nondet-ok barrier-stall telemetry; wall clock never feeds simulated state
		g.barrier[i].Add(wait)
		globalShardBarrier[i].Add(wait)
		g.trace.OnBarrierWait(i, int64(e.now), wait)

		// Merge the inbox written during the window just completed.
		// Every entry is at least one window in the future, so AtKey's
		// not-in-the-past guard doubles as an invariant check.
		merged := 0
		for s := 0; s < int(n); s++ {
			box := g.boxes[parity][s][i]
			merged += len(box)
			for k := range box {
				e.AtKey(box[k].at, box[k].key, box[k].fn)
				box[k].fn = nil
			}
			g.boxes[parity][s][i] = box[:0]
		}
		g.trace.OnMerge(i, int64(e.now), merged)
		parity ^= 1
		g.par[i] = parity

		if g.stop {
			return
		}
	}
}

// windowBarrier is the barrier's serial section: every other shard is
// parked, so it may touch all engines. It runs the hub's checkpoint if
// the cadence is due, then either declares the run over or opens the
// next window at the global minimum event time (skipping empty time
// wholesale, exactly like the serial engine's queue pop does).
//
//hmcsim:hotpath
func (g *Group) windowBarrier() {
	hub := g.engines[0]
	if hub.ckEvery != 0 {
		if total := g.fired(); total-g.ckFired >= hub.ckEvery {
			g.ckFired = total
			if !hub.ckFn() {
				hub.interrupted = true
				g.stop = true
			}
		}
	}
	if g.stop {
		return
	}
	m := maxTime
	for _, v := range g.mins {
		if v < m {
			m = v
		}
	}
	switch {
	case !g.drain && m > g.until:
		g.stop = true
		g.settleRun(g.until)
	case g.drain && m == maxTime:
		g.stop = true
		g.settleDrain()
	default:
		if g.trace != nil {
			skip := int64(m) - int64(g.next)
			if skip < 0 {
				skip = 0
			}
			g.trace.OnWindowOpen(skip)
		}
		g.next = m + g.window
	}
}
