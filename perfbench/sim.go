package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"hmcsim"
	"hmcsim/internal/addr"
	"hmcsim/internal/obs"
	"hmcsim/internal/traffic"
)

// The simulator workloads share one window: 15 us of warm-up, then a
// 200 us measurement window, long enough that the GUPS lanes reach the
// paper's steady state and short enough for dozens of Run calls a run.
const (
	warmup = 15 * hmcsim.Microsecond
	window = 200 * hmcsim.Microsecond
)

// Paper figures the GUPS lanes are checked and scored against. The bands
// are the ones internal/exp/exp_test.go holds the model to.
const (
	paperSpreadGBps = 23    // Fig 6/13: distributed 128 B reads
	paperBankLatNs  = 24000 // Fig 6: 128 B reads confined to one bank
)

var gupsSpread = simLane{
	name: "gups-spread",
	workload: hmcsim.GUPS{Ports: 9, Size: 128, Pattern: hmcsim.AllVaults,
		Warmup: warmup, Window: window},
	check: func(m hmcsim.Measurement) error {
		if m.GBps < 20 || m.GBps > 24 {
			return fmt.Errorf("16 vaults 128B = %.2f GB/s, want 20-24", m.GBps)
		}
		return nil
	},
	paperErr: func(m hmcsim.Measurement) float64 { return pctErr(m.GBps, paperSpreadGBps) },
	golden:   "reads=27249 writes=0 events=679196 txn=29587 lat=5280.67 gbps=21.7992",
}

var gups1Bank = simLane{
	name: "gups-1bank",
	workload: hmcsim.GUPS{Ports: 9, Size: 128, Pattern: hmcsim.PatternSpec{Name: "1 bank", Banks: 1},
		Warmup: warmup, Window: window},
	check: func(m hmcsim.Measurement) error {
		if m.AvgLatNs < 15000 || m.AvgLatNs > 40000 {
			return fmt.Errorf("1 bank 128B latency = %.0f ns, want 15000-40000", m.AvgLatNs)
		}
		return nil
	},
	paperErr: func(m hmcsim.Measurement) float64 { return pctErr(m.AvgLatNs, paperBankLatNs) },
	golden:   "reads=5434 writes=0 events=140795 txn=5834 lat=25550.7 gbps=4.3472",
}

// openRW is below saturation: 9 ports x 1 GB/s offered against the
// ~23 GB/s ceiling, so latency stays near the idle floor while writes
// carry data on the request links.
var openRW = hmcsim.TrafficSpec{
	Pattern:       hmcsim.TrafficZipf,
	WriteFraction: 0.5,
	MixRunLength:  4,
	Discipline:    hmcsim.TrafficOpenLoop,
	RateGBps:      1,
}

var trafficOpenRW = simLane{
	name: "traffic-openrw",
	workload: hmcsim.TrafficWorkload{Traffic: openRW, Ports: 9, Size: 64,
		Warmup: warmup, Window: window},
	check: func(m hmcsim.Measurement) error {
		if m.Reads == 0 || m.Writes == 0 {
			return fmt.Errorf("read/write traffic completed %d reads and %d writes", m.Reads, m.Writes)
		}
		return nil
	},
	golden: "reads=13945 writes=14179 events=991262 txn=30175 lat=724.381 gbps=13.4995",
}

// simLane is one simulator workload: a Workload run on a fresh System per
// operation, its output check, and the exact statistics it produced at
// the default config seed when the benchmark was written.
type simLane struct {
	name     string
	workload hmcsim.Workload
	check    func(hmcsim.Measurement) error
	paperErr func(hmcsim.Measurement) float64 // nil: no paper reference
	golden   string
}

// iteration is one operation: build a System, Run the workload on it.
type iteration struct {
	setup, run time.Duration
	ref        time.Duration // the reference kernel, timed just before
	m          hmcsim.Measurement
	sys        *hmcsim.System
	txn        uint64 // responses the controller received, warm-up included
	events     uint64
}

func pctErr(got, want float64) float64 { return 100 * math.Abs(got-want) / want }

// iterSeed derives operation i's config seed from the run seed.
func iterSeed(seed uint64, i int) uint64 { return splitmix64(splitmix64(seed)+uint64(i)) | 1 }

// once builds a System with the given config seed (and tracer, if any)
// and runs the workload on it, recording spans under parent.
func (l simLane) once(seed uint64, tr *obs.SystemTracer, sp *spans, parent int) (iteration, error) {
	cfg := hmcsim.DefaultConfig()
	cfg.Seed = seed
	cfg.Trace = tr
	var it iteration

	s := sp.begin("setup", parent)
	t0 := time.Now()
	it.sys = hmcsim.NewSystem(cfg)
	var err error
	if v, ok := l.workload.(hmcsim.TrafficWorkload); ok {
		err = v.Validate()
	}
	it.setup = time.Since(t0)
	sp.end(s)
	if err != nil {
		return it, fmt.Errorf("%s: validate: %w", l.name, err)
	}

	s = sp.begin("run", parent)
	t0 = time.Now()
	it.m = l.workload.Run(it.sys)
	it.run = time.Since(t0)
	sp.end(s)

	it.txn = it.sys.Ctrl.ResponsesReceived()
	it.events = it.sys.Eng.Fired()
	return it, nil
}

// verify is the output check every operation passes: packet
// conservation through the host and the cube, then the lane's own check.
func (l simLane) verify(it iteration) error {
	if err := conserved(it.sys); err != nil {
		return fmt.Errorf("%s: %w", l.name, err)
	}
	return l.check(it.m)
}

// conserved checks that no packet appeared from nowhere between the
// controller and the cube, and that some traffic completed. Packets
// still on the links are why the counts need not be equal.
func conserved(sys *hmcsim.System) error {
	sent, in := sys.Ctrl.RequestsSent(), sys.HMC.RequestsIn()
	out, recv := sys.HMC.ResponsesOut(), sys.Ctrl.ResponsesReceived()
	if !(sent >= in && in >= out && out >= recv) || recv == 0 {
		return fmt.Errorf("conservation broken: sent %d >= in %d >= out %d >= received %d > 0 fails",
			sent, in, out, recv)
	}
	return nil
}

// knownAnswer fingerprints the statistics golden records.
func knownAnswer(it iteration) string {
	return fmt.Sprintf("reads=%d writes=%d events=%d txn=%d lat=%.6g gbps=%.6g",
		it.m.Reads, it.m.Writes, it.events, it.txn, it.m.AvgLatNs, it.m.GBps)
}

// loop runs operations with seeds 0, 1, ... until budget is spent (at
// least one), checking each. traced attaches an obs collector to every
// System; the first operation's collector is returned.
func (l simLane) loop(cfg runConfig, rep *report, budget time.Duration, traced bool, sp *spans) ([]iteration, *obs.Collector, error) {
	var its []iteration
	var first *obs.Collector
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		var tr *obs.SystemTracer
		if traced {
			col := &obs.Collector{}
			if first == nil {
				first = col
			}
			tr = col.NewSystem()
		}
		op := sp.begin("op", 0)
		ref := timeRef()
		it, err := l.once(iterSeed(cfg.seed, i), tr, sp, op)
		if err != nil {
			return nil, nil, err
		}
		it.ref = ref
		c := sp.begin("check", op)
		rep.op(l.verify(it))
		sp.end(c)
		sp.end(op)
		if i > 0 {
			it.sys = nil // only the first System is read after the loop
		}
		its = append(its, it)
	}
	return its, first, nil
}

func (l simLane) run(cfg runConfig) (*report, error) {
	rep := newReport()
	var sp *spans
	if cfg.trace {
		sp = newSpans(fmt.Sprintf("%s-%d", l.name, cfg.seed))
		if w, ok := l.workload.(hmcsim.TrafficWorkload); ok {
			// Compile is timed first, before any Run has warmed the
			// generator's memoized tables, as a cold set-up cost.
			s := sp.begin("traffic.Compile", 0)
			t0 := time.Now()
			if _, err := traffic.Compile(w.Traffic, w.Size, 1); err != nil {
				return nil, fmt.Errorf("%s: compile: %w", l.name, err)
			}
			rep.metrics["traffic.compile_s"] = time.Since(t0).Seconds()
			sp.end(s)
		}
	}

	// The known-answer operation: the default config seed must reproduce
	// the statistics recorded when the benchmark was written. It also
	// warms the process up before anything is timed.
	s := sp.begin("known-answer", 0)
	it, err := l.once(hmcsim.DefaultConfig().Seed, nil, sp, s)
	if err != nil {
		return nil, err
	}
	if cfg.perturb {
		it.m.Reads++
	}
	got := knownAnswer(it)
	if got != l.golden {
		rep.op(fmt.Errorf("%s: known answer at the default seed is %q, want %q", l.name, got, l.golden))
	} else {
		rep.op(l.verify(it))
	}
	sp.end(s)

	if !cfg.trace {
		its, _, err := l.loop(cfg, rep, cfg.seconds, false, nil)
		if err != nil {
			return nil, err
		}
		var setup, rate, runMs, rawRate []float64
		for _, it := range its {
			setup = append(setup, scale(it.setup, it.ref)/1e9)
			rate = append(rate, float64(it.txn)*1e9/scale(it.run, it.ref))
			runMs = append(runMs, scale(it.run, it.ref)/1e6)
			rawRate = append(rawRate, float64(it.txn)/it.run.Seconds())
		}
		fmt.Printf("runs %d (each %s of simulated time); uncalibrated ops_per_s %.6g; reference kernel %.4g ms\n",
			len(its), warmup+window, quantile(rawRate, 0.5), refMs(its))
		rep.metrics["setup_s"] = quantile(setup, 0.5)
		rep.metrics["ops_per_s"] = quantile(rate, 0.5)
		rep.metrics["p50_ms"] = quantile(runMs, 0.5)
		rep.metrics["p95_ms"] = quantile(runMs, 0.95)
		rep.metrics["mem_peak_mb"] = peakRSSMB()
		return rep, nil
	}

	// Traced run: half the budget untraced but CPU-profiled (sampling
	// costs about 1%), half with the obs collector and spans attached,
	// on the same operation seeds; the ns/event difference between the
	// halves is the tracing overhead.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	plain, _, err := l.loop(cfg, rep, cfg.seconds/2, false, nil)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	traced, col, err := l.loop(cfg, rep, cfg.seconds/2, true, sp)
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		rep.metrics[k] = v
	}
	l.layerMetrics(rep, traced[0], col.Summary())
	nsPlain, nsTraced := nsPerEvent(plain), nsPerEvent(traced)
	rep.metrics["sim.ns_per_event"] = nsPlain
	rep.metrics["calib.ref_ms"] = refMs(plain)
	rep.metrics["trace.overhead_pct"] = 100 * (nsTraced/nsPlain - 1)
	if l.paperErr != nil {
		var errs []float64
		for _, it := range plain {
			errs = append(errs, l.paperErr(it.m))
		}
		rep.metrics["paper_err_pct"] = quantile(errs, 0.5)
	}

	if err := writeTraced(cfg.out, prof.Bytes(), sp, "layers.json", col.Summary()); err != nil {
		return nil, err
	}
	return rep, nil
}

// nsPerEvent is the median calibrated host time per fired event.
func nsPerEvent(its []iteration) float64 {
	var xs []float64
	for _, it := range its {
		xs = append(xs, scale(it.run, it.ref)/float64(it.events))
	}
	return quantile(xs, 0.5)
}

// refMs is the median raw reference kernel time in milliseconds.
func refMs(its []iteration) float64 {
	var xs []float64
	for _, it := range its {
		xs = append(xs, float64(it.ref.Nanoseconds())/1e6)
	}
	return quantile(xs, 0.5)
}

// layerMetrics reads the per-layer counts of one traced operation. They
// depend only on the operation's seed, so they repeat exactly per seed.
func (l simLane) layerMetrics(rep *report, it iteration, sum *obs.Summary) {
	sys, now := it.sys, it.sys.Eng.Now()
	m := rep.metrics
	m["sim.events"] = float64(it.events)
	m["sim.events_per_txn"] = float64(it.events) / float64(it.txn)
	m["sim.pending"] = float64(sys.Eng.Pending())

	m["host.requests"] = float64(sys.Ctrl.RequestsSent())
	m["host.tag_waits"] = float64(sum.Host.TagWaits)
	m["host.ctrl_util"] = sys.Ctrl.Utilization(now)

	var flits, retries uint64
	var respUtil float64
	for i := 0; i < sys.HMC.Links(); i++ {
		lk := sys.HMC.Link(i)
		flits += lk.Req.Flits() + lk.Resp.Flits()
		retries += lk.Req.Retries() + lk.Resp.Retries()
		respUtil += lk.Resp.Utilization(now)
	}
	m["link.flits"] = float64(flits)
	m["link.retries"] = float64(retries)
	m["link.util_resp"] = respUtil / float64(sys.HMC.Links())

	m["noc.hops"] = float64(sum.NoC.Hops)
	m["noc.credit_stalls"] = float64(sum.NoC.Stalls)
	m["noc.hop_queue_mean"] = sum.NoC.Queue.Mean

	m["hmc.outstanding_mean"] = it.m.HMCOutstanding
	m["hmc.lat_ns"] = it.m.AvgHMCLatNs

	acc, rej := float64(sum.Vaults.Accepts), float64(sum.Vaults.Rejects)
	m["vault.accepts"] = acc
	m["vault.rejects"] = rej
	if acc+rej > 0 {
		m["vault.accept_ratio"] = acc / (acc + rej)
	}
	m["vault.occupancy_mean"] = sum.Vaults.Occupancy.Mean
	var tsv float64
	for v := 0; v < addr.Vaults; v++ {
		tsv += sys.HMC.Vault(v).TSVUtilization(now)
	}
	m["vault.tsv_util"] = tsv / addr.Vaults
}
