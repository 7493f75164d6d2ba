package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Host-speed calibration. On a shared machine the simulator's host speed
// drifts by 15-30% over minutes as neighbours load the same cores and
// caches, which no amount of averaging inside one run removes. A compute
// kernel drifts far less than the simulator does, so it cannot cancel
// the drift; a kernel shaped like the simulator's hot loop does. The
// reference kernel below is that shape: a 4-ary event heap holding ~730
// pending events (the gups-spread queue depth) whose handlers touch
// 64-byte component records. It is the benchmark's own frozen code, so a
// change to hmcsim never changes it.
//
// Every timed figure is scaled by refNominal / (the kernel's time
// measured alongside it): it reads as if measured on a host where the
// kernel takes refNominal, about its time on the 2-vCPU Xeon sandbox the
// benchmark was written on. The raw kernel time is reported as
// calib.ref_ms.
const refNominal = 8 * time.Millisecond

type refEvent struct {
	at, seq uint64
	obj     int32
}

type refRecord struct {
	next  int32
	state uint64
	_     [6]uint64
}

// refRecords is the kernel's component table, built once.
var refRecords = func() []refRecord {
	recs := make([]refRecord, 1<<16)
	var s uint64 = 7
	for i := range recs {
		s = s*6364136223846793005 + 1442695040888963407
		recs[i].next = int32(s >> 48)
	}
	return recs
}()

func refBefore(a, b *refEvent) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

// refKernel runs the reference kernel once: 60000 events through the
// heap, with the bimodal short/long delays the simulator schedules. Its
// writes to refRecords keep the compiler from removing the loop.
func refKernel() {
	h := make([]refEvent, 0, 1024)
	var s uint64 = 3
	var seq uint64
	push := func(e refEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 4
			if !refBefore(&h[i], &h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	pop := func() refEvent {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; ; {
			m := 4*i + 1
			if m >= len(h) {
				break
			}
			for k := m + 1; k < 4*i+5 && k < len(h); k++ {
				if refBefore(&h[k], &h[m]) {
					m = k
				}
			}
			if !refBefore(&h[m], &h[i]) {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for i := 0; i < 730; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		seq++
		push(refEvent{at: s >> 50, seq: seq, obj: int32(s >> 48)})
	}
	for i := 0; i < 60000; i++ {
		e := pop()
		r := &refRecords[e.obj]
		r.state += e.at
		s = s*6364136223846793005 + 1442695040888963407
		delay := uint64(10)
		if s>>60 < 3 {
			delay = 500 + s>>54
		}
		seq++
		push(refEvent{at: e.at + delay, seq: seq, obj: r.next})
	}
}

// timeRef times one kernel run on the wall clock.
func timeRef() time.Duration {
	t0 := time.Now()
	refKernel()
	return time.Since(t0)
}

// scale converts a duration measured alongside a kernel run of ref into
// its calibrated value.
func scale(d, ref time.Duration) float64 {
	return float64(d) * float64(refNominal) / float64(ref)
}

// calibrator samples the kernel every period on a thread of its own
// while other goroutines do the measured work, for workloads whose work
// is spread over several goroutines. It times the kernel in thread CPU
// time, so waiting for a CPU behind the measured work does not count.
type calibrator struct {
	stop    chan struct{}
	done    chan struct{}
	samples []time.Duration
}

func startCalibrator(period time.Duration) *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			t0, ok := threadCPU()
			if !ok {
				// No per-thread clock here: fall back to wall time.
				c.samples = append(c.samples, timeRef())
			} else {
				refKernel()
				t1, _ := threadCPU()
				c.samples = append(c.samples, t1-t0)
			}
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
		}
	}()
	return c
}

// median stops the calibrator and returns its median kernel time.
func (c *calibrator) median() time.Duration {
	close(c.stop)
	<-c.done
	return medianDuration(c.samples)
}

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// threadCPU returns the calling thread's CPU time (user + system).
func threadCPU() (time.Duration, bool) {
	const rusageThread = 1 // RUSAGE_THREAD (Linux)
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
