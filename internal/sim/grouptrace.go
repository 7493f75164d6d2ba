package sim

import "hmcsim/internal/obs"

// GroupTracer is the lockstep observatory: it watches a Group's barrier
// and mailbox machinery so shard-count tuning can be evidence-driven.
// All hooks are nil-receiver safe and allocation-free, following the
// same discipline as the obs tracers compiled into the kernel hot
// paths: a Group without a tracer pays a nil check per hook and nothing
// else.
//
// Thread-safety mirrors the Group's own contract: shard i's
// GroupShardTrace is written only by the goroutine driving shard i
// during a run, and the group-wide fields (Windows, WindowSkip) are
// written only inside the barrier's serial section. Read everything
// after the run returns.
type GroupTracer struct {
	// Windows counts lockstep windows opened at barriers (the first
	// window, opened by run() itself, is not counted).
	Windows uint64
	// WindowSkip histograms how far each window open jumped past the
	// previous window's end, in simulated picoseconds: the idle time
	// the skip-to-global-min optimization deleted wholesale.
	WindowSkip obs.Hist

	shards [MaxShards]GroupShardTrace
}

// GroupShardTrace is one shard's view of the lockstep run.
type GroupShardTrace struct {
	// BarrierWait histograms wall-clock nanoseconds from barrier
	// arrival to release, per window. The last arriver's "wait" is the
	// serial section it runs, so per-shard totals are comparable.
	// Bucket boundaries saturate near 32 µs; Mean and Max stay exact.
	BarrierWait obs.Hist
	// WindowEvents histograms events executed per window; a shard
	// whose distribution hugs zero is along for the barrier ride.
	WindowEvents obs.Hist
	// Mailbox histograms cross-shard events merged into this shard's
	// queue per barrier. Max is the mailbox depth high-water mark.
	Mailbox obs.Hist

	tlWin  *obs.TimelineTrack
	tlMail *obs.TimelineTrack
	stalls *obs.SliceTrack
}

// Shard returns shard i's trace for reading after a run.
func (t *GroupTracer) Shard(i int) *GroupShardTrace {
	if t == nil {
		return nil
	}
	return &t.shards[i]
}

// AttachTimeline routes shard i's window, mailbox and barrier-stall
// samples onto tl (typically the shard's private timeline from
// obs.SystemTracer.ShardTimeline). Nil receiver and nil timeline are
// both no-ops, so wiring code needs no guards.
func (t *GroupTracer) AttachTimeline(shard int, tl *obs.Timeline) {
	if t == nil || tl == nil {
		return
	}
	st := &t.shards[shard]
	st.tlWin = tl.Track("window events")
	st.tlMail = tl.Track("mailbox merge")
	st.stalls = tl.Slices("barrier stall")
}

// OnWindow records a completed execution window on shard, ending at
// simulated time atPs, during which the shard fired `fired` events.
//
//hmcsim:hotpath
func (t *GroupTracer) OnWindow(shard int, atPs int64, fired int) {
	if t == nil {
		return
	}
	st := &t.shards[shard]
	st.WindowEvents.Observe(fired)
	st.tlWin.Add(atPs, uint64(fired))
}

// OnBarrierWait records one barrier passage on shard: waitNs wall-clock
// nanoseconds from arrival to release, at simulated time atPs.
//
//hmcsim:hotpath
func (t *GroupTracer) OnBarrierWait(shard int, atPs, waitNs int64) {
	if t == nil {
		return
	}
	st := &t.shards[shard]
	st.BarrierWait.Observe(int(waitNs))
	st.stalls.Add(atPs, waitNs)
}

// OnMerge records the post-barrier inbox merge on shard: merged
// cross-shard events entered the heap at simulated time atPs.
//
//hmcsim:hotpath
func (t *GroupTracer) OnMerge(shard int, atPs int64, merged int) {
	if t == nil {
		return
	}
	st := &t.shards[shard]
	st.Mailbox.Observe(merged)
	st.tlMail.Add(atPs, uint64(merged))
}

// OnWindowOpen records the barrier's serial section opening the next
// window, having skipped skipPs picoseconds of empty simulated time.
// Called with barrier exclusivity; never concurrent with itself.
//
//hmcsim:hotpath
func (t *GroupTracer) OnWindowOpen(skipPs int64) {
	if t == nil {
		return
	}
	t.Windows++
	t.WindowSkip.Observe(int(skipPs))
}
