// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the design choices DESIGN.md calls out. Each benchmark
// runs the corresponding experiment on reduced (Quick) sweeps and reports
// its headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints a compact reproduction summary. The hmcsim CLI runs the full
// paper-scale sweeps.
package hmcsim_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/dram"
	"hmcsim/internal/exp"
	"hmcsim/internal/sim"
)

// ctx is declared in api_test.go; both files share package hmcsim_test.
var quick = exp.Options{Quick: true}

// BenchmarkExperiments iterates the experiment registry, so newly
// registered runners are benchmarked without editing this file.
func BenchmarkExperiments(b *testing.B) {
	for _, r := range exp.Runners() {
		b.Run(r.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := r.Run(ctx, quick)
				if err != nil {
					b.Fatalf("%s: %v", r.Name(), err)
				}
				if len(res.Series) == 0 {
					b.Fatalf("%s: empty result", r.Name())
				}
			}
		})
	}
}

// TestBenchSweep runs every registered experiment once in quick mode
// and writes the wall-clock trajectory to BENCH_sweep.json, the
// performance record future changes are compared against.
func TestBenchSweep(t *testing.T) {
	type entry struct {
		Name   string  `json:"name"`
		Millis float64 `json:"millis"`
	}
	// Record the effective fan-out: timings scale with the cores the
	// sweeps actually used, so trajectories are only comparable between
	// runs with the same worker count.
	sweep := struct {
		Quick   bool    `json:"quick"`
		Workers int     `json:"workers"`
		Entries []entry `json:"entries"`
	}{Quick: true, Workers: runtime.NumCPU()}
	for _, r := range exp.Runners() {
		start := time.Now()
		res, err := r.Run(ctx, quick)
		if err != nil {
			t.Fatalf("runner %q: %v", r.Name(), err)
		}
		if res.Name != r.Name() {
			t.Fatalf("runner %q produced result %q", r.Name(), res.Name)
		}
		sweep.Entries = append(sweep.Entries, entry{
			Name:   r.Name(),
			Millis: float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	blob, err := json.MarshalIndent(sweep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sweep.json", append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.TableI()
		if len(r.Rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkEq1PeakBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.PeakBandwidth()
		b.ReportMetric(r.Peak.GBpsValue(), "GB/s-peak")
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig6(ctx, quick)
		if p, ok := r.Point("16 vaults", 128); ok {
			b.ReportMetric(p.GBps, "GB/s-spread128")
			b.ReportMetric(p.AvgLatNs, "ns-spread128")
		}
		if p, ok := r.Point("1 bank", 128); ok {
			b.ReportMetric(p.AvgLatNs, "ns-1bank128")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig7(ctx, quick)
		if p, ok := r.Point(128, 55); ok {
			b.ReportMetric(p.AvgLatNs, "ns-128B-n55")
		}
		if p, ok := r.Point(16, 1); ok {
			b.ReportMetric(p.AvgLatNs, "ns-noload")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig8(ctx, quick)
		if p, ok := r.Point(128, 350); ok {
			b.ReportMetric(p.AvgLatNs, "ns-128B-plateau")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig9(ctx, quick)
		b.ReportMetric(r.CollisionPenalty(1, 64), "x-collision64")
		b.ReportMetric(r.CollisionPenalty(1, 128), "x-collision128")
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig10(ctx, quick)
		mean16, sigma16 := r.Stats(16)
		mean128, sigma128 := r.Stats(128)
		b.ReportMetric(mean16, "ns-mean16")
		b.ReportMetric(sigma16, "ns-sigma16")
		b.ReportMetric(mean128, "ns-mean128")
		b.ReportMetric(sigma128, "ns-sigma128")
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig13(ctx, quick)
		if p, ok := r.SaturatedPoint(128, "16 vaults"); ok {
			b.ReportMetric(p.GBps, "GB/s-ceiling")
		}
		if p, ok := r.SaturatedPoint(16, "8 banks"); ok {
			b.ReportMetric(p.GBps, "GB/s-vaultcap")
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig14(ctx, quick)
		b.ReportMetric(r.Average(2), "outstanding-2banks")
		b.ReportMetric(r.Average(4), "outstanding-4banks")
	}
}

func BenchmarkDDRComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.DDRComparison(ctx, quick)
		b.ReportMetric(r.HMCRandomGBps/r.DDRRandomGBps, "x-hmc-vs-ddr")
	}
}

// --- Ablations -----------------------------------------------------------

// gupsOnce runs one 9-port GUPS measurement on a custom configuration.
func gupsOnce(cfg core.Config, size int, pattern func(*core.System) core.Pattern) core.Result {
	sys := core.NewSystem(cfg)
	return sys.RunGUPS(core.GUPSSpec{
		Ports: 9, Size: size, Pattern: pattern(sys),
		Warmup: 15 * sim.Microsecond, Window: 40 * sim.Microsecond,
	})
}

// BenchmarkAblationBankQueueDepth shows that the per-bank queue depth sets
// the outstanding-request plateau of Figure 14: halving the queues halves
// the bank-bound occupancy.
func BenchmarkAblationBankQueueDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		deep := core.DefaultConfig()
		shallow := core.DefaultConfig()
		shallow.HMC.Vault.BankQueueDepth = 32
		pat := func(s *core.System) core.Pattern { return s.Banks(4) }
		rDeep := gupsOnce(deep, 32, pat)
		rShallow := gupsOnce(shallow, 32, pat)
		b.ReportMetric(rDeep.HMCOutstanding, "outstanding-q128")
		b.ReportMetric(rShallow.HMCOutstanding, "outstanding-q32")
	}
}

// BenchmarkAblationOpenPage compares the vault's closed-page policy with
// open-page under random traffic: random accesses almost never hit, so
// open-page only adds precharge-on-demand latency.
func BenchmarkAblationOpenPage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		closed := core.DefaultConfig()
		open := core.DefaultConfig()
		open.HMC.Vault.Policy = dram.OpenPage
		pat := func(s *core.System) core.Pattern { return s.Banks(1) }
		rClosed := gupsOnce(closed, 64, pat)
		rOpen := gupsOnce(open, 64, pat)
		b.ReportMetric(rClosed.Bandwidth.GBpsValue(), "GB/s-closed")
		b.ReportMetric(rOpen.Bandwidth.GBpsValue(), "GB/s-open")
	}
}

// BenchmarkAblationSingleLink removes one of the two half-width links,
// halving the external ceiling of Figures 6 and 13 while leaving the
// within-vault plateaus untouched.
func BenchmarkAblationSingleLink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		two := core.DefaultConfig()
		one := core.DefaultConfig()
		one.HMC.Links = 1
		one.HMC.LinkHome = []int{0}
		all := func(s *core.System) core.Pattern { return core.AllVaults() }
		rTwo := gupsOnce(two, 128, all)
		rOne := gupsOnce(one, 128, all)
		b.ReportMetric(rTwo.Bandwidth.GBpsValue(), "GB/s-2links")
		b.ReportMetric(rOne.Bandwidth.GBpsValue(), "GB/s-1link")

		vault := func(s *core.System) core.Pattern { return s.Vaults(1) }
		vTwo := gupsOnce(two, 128, vault)
		b.ReportMetric(vTwo.Bandwidth.GBpsValue(), "GB/s-vault-2links")
	}
}

// BenchmarkAblationNoCBuffer varies the router credit depth: tiny buffers
// throttle distributed traffic; the default is sized so the NoC is not
// the artificial bottleneck.
func BenchmarkAblationNoCBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small := core.DefaultConfig()
		small.HMC.NoC.InputBuffer = 1
		big := core.DefaultConfig()
		all := func(s *core.System) core.Pattern { return core.AllVaults() }
		rSmall := gupsOnce(small, 64, all)
		rBig := gupsOnce(big, 64, all)
		b.ReportMetric(rSmall.Bandwidth.GBpsValue(), "GB/s-buf1")
		b.ReportMetric(rBig.Bandwidth.GBpsValue(), "GB/s-buf8")
	}
}

// BenchmarkAblationReadWriteMix revisits Section IV-F's bi-directional
// asymmetry: read-only traffic saturates the response direction while a
// 50/50 mix spreads load over both.
func BenchmarkAblationReadWriteMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		all := func(s *core.System) core.Pattern { return core.AllVaults() }
		sysR := core.NewSystem(cfg)
		readOnly := sysR.RunGUPS(core.GUPSSpec{
			Ports: 9, Size: 128, Pattern: all(sysR),
			Warmup: 15 * sim.Microsecond, Window: 40 * sim.Microsecond,
		})
		sysM := core.NewSystem(cfg)
		mixed := sysM.RunGUPS(core.GUPSSpec{
			Ports: 9, Size: 128, Pattern: all(sysM), Kind: 2, // ReadWriteMix
			Warmup: 15 * sim.Microsecond, Window: 40 * sim.Microsecond,
		})
		b.ReportMetric(readOnly.Bandwidth.GBpsValue(), "GB/s-readonly")
		b.ReportMetric(mixed.Bandwidth.GBpsValue(), "GB/s-mixed")
	}
}

// BenchmarkEngineThroughput measures the simulation kernel itself:
// simulated transactions per wall second under full random load.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(core.DefaultConfig())
		res := sys.RunGUPS(core.GUPSSpec{
			Ports: 9, Size: 32, Pattern: core.AllVaults(),
			Warmup: 5 * sim.Microsecond, Window: 50 * sim.Microsecond,
		})
		if res.Reads == 0 {
			b.Fatal("no traffic")
		}
	}
}
