package exp

import (
	"context"
	"fmt"

	"hmcsim"
)

// trafficPoint is one measured traffic configuration.
type trafficPoint struct {
	Label    string
	X        float64
	GBps     float64
	AvgLatNs float64
	MaxLatNs float64
}

// runTraffic measures one traffic workload on a fresh system.
func runTraffic(ctx context.Context, o Options, spec hmcsim.TrafficSpec, label string, x float64) trafficPoint {
	sys := o.NewSystemCtx(ctx)
	m := hmcsim.TrafficWorkload{
		Traffic: spec,
		Ports:   9,
		Size:    128,
		Warmup:  o.Warmup(),
		Window:  o.Window(),
	}.Run(sys)
	return trafficPoint{Label: label, X: x, GBps: m.GBps, AvgLatNs: m.AvgLatNs, MaxLatNs: m.MaxLatNs}
}

// trafficResult renders a slice of points as the standard two series
// (bandwidth, avg-latency) plus the text table.
func trafficResult(title, xHeader string, points []trafficPoint) hmcsim.Result {
	bw := hmcsim.Series{Name: "bandwidth", Unit: "GB/s"}
	avg := hmcsim.Series{Name: "avg-latency", Unit: "ns"}
	tab := table{header: []string{xHeader, "Traffic", "BW (GB/s)", "Avg lat (ns)", "Max lat (ns)"}}
	for _, p := range points {
		bw.Points = append(bw.Points, hmcsim.Point{Label: p.Label, X: p.X, Y: p.GBps})
		avg.Points = append(avg.Points, hmcsim.Point{Label: p.Label, X: p.X, Y: p.AvgLatNs})
		tab.addRow(
			fmt.Sprintf("%g", p.X),
			p.Label,
			fmt.Sprintf("%.2f", p.GBps),
			fmt.Sprintf("%.0f", p.AvgLatNs),
			fmt.Sprintf("%.0f", p.MaxLatNs))
	}
	return hmcsim.Result{Series: []hmcsim.Series{bw, avg}, Text: title + "\n" + tab.String()}
}

// TrafficZipfThetas is the skew sweep of the traffic-zipf experiment.
// It starts at 0.01 (an explicit near-uniform point — a literal 0 would
// compile as the 0.99 default) and runs past 1.5, where the hottest
// block alone draws a bank-saturating share of the traffic.
var TrafficZipfThetas = []float64{0.01, 0.5, 0.9, 1.2, 1.5, 1.8}

// TrafficZipf sweeps zipf skew at full port count: theta 0 is uniform
// over the working set, and as theta grows the hot ranks concentrate
// onto ever fewer blocks — and, through the cube's low-order
// interleaving, onto ever fewer banks — reproducing the pattern-mask
// latency knee of Figure 6 from a popularity distribution instead of
// an address mask.
func TrafficZipf(ctx context.Context, o Options) hmcsim.Result {
	points := hmcsim.Sweep(ctx, o.Workers, len(TrafficZipfThetas), func(i int) trafficPoint {
		theta := TrafficZipfThetas[i]
		return runTraffic(ctx, o, hmcsim.TrafficSpec{Pattern: hmcsim.TrafficZipf, ZipfTheta: theta},
			fmt.Sprintf("zipf %.2f", theta), theta)
	})
	return trafficResult("Synthetic traffic: read latency and bandwidth vs zipf skew", "Theta", points)
}

// TrafficMixFractions is the write-fraction sweep of traffic-mix.
var TrafficMixFractions = []float64{0, 0.25, 0.5, 0.75, 1}

// TrafficMix sweeps the markov read/write mix from read-only to
// write-only uniform traffic, revisiting Section IV-F's bi-directional
// link asymmetry with a scripted mixer instead of the GUPS alternator.
func TrafficMix(ctx context.Context, o Options) hmcsim.Result {
	points := hmcsim.Sweep(ctx, o.Workers, len(TrafficMixFractions), func(i int) trafficPoint {
		frac := TrafficMixFractions[i]
		return runTraffic(ctx, o, hmcsim.TrafficSpec{
			Pattern:       hmcsim.TrafficUniform,
			WriteFraction: frac,
			MixRunLength:  8,
		}, fmt.Sprintf("wr %.2f", frac), frac)
	})
	return trafficResult("Synthetic traffic: markov read/write mix sweep", "WriteFrac", points)
}

// TrafficBurstRates is the per-port average offered load sweep (GB/s)
// of traffic-burst.
var TrafficBurstRates = []float64{0.5, 1, 1.5, 2, 2.5}

// TrafficBurst compares steady open-loop injection against 50%-duty
// on/off bursts at the same average offered load: the burst's on-phase
// runs at twice the steady rate, so equal X positions carry equal
// offered bytes but the bursty series pays queueing latency as its
// peaks cross the controller ceiling.
func TrafficBurst(ctx context.Context, o Options) hmcsim.Result {
	points := hmcsim.Sweep2(ctx, o.Workers, TrafficBurstRates, []bool{false, true},
		func(rate float64, burst bool) trafficPoint {
			offered := 9 * rate // aggregate across the nine ports
			if !burst {
				return runTraffic(ctx, o, hmcsim.TrafficSpec{
					Discipline: hmcsim.TrafficOpenLoop,
					RateGBps:   rate,
				}, "steady", offered)
			}
			return runTraffic(ctx, o, hmcsim.TrafficSpec{
				Discipline: hmcsim.TrafficOpenLoop,
				Phases: []hmcsim.TrafficPhase{
					{DurationUs: 10, RateGBps: 2 * rate},
					{DurationUs: 10, Off: true},
				},
			}, "burst", offered)
		})
	return trafficResult("Synthetic traffic: steady vs 50%-duty burst injection", "Offered GB/s", points)
}

// DefaultTrafficSpec is what the generic "traffic" runner executes
// when options carry no spec: the zero value, i.e. uniform random
// read-only closed-loop traffic over the whole cube.
var DefaultTrafficSpec = hmcsim.TrafficSpec{}

// Traffic runs exactly the traffic spec in options (or the default),
// making arbitrary user-composed traffic a first-class experiment:
// submittable to hmcsimd, cached under its Spec key, and sweepable by
// seed like any figure.
func Traffic(ctx context.Context, o Options) hmcsim.Result {
	spec := DefaultTrafficSpec
	if o.Traffic != nil {
		spec = *o.Traffic
	}
	p := runTraffic(ctx, o, spec, spec.Name(), 0)
	title := fmt.Sprintf("Synthetic traffic: %s, 9 ports x 128 B", spec.Name())
	return trafficResult(title, "X", []trafficPoint{p})
}

func init() {
	Register("traffic-zipf", Meta{Title: "Synthetic traffic: latency/bandwidth vs zipf skew"},
		plain(TrafficZipf))
	Register("traffic-mix", Meta{Title: "Synthetic traffic: markov read/write mix sweep"},
		plain(TrafficMix))
	Register("traffic-burst", Meta{Title: "Synthetic traffic: steady vs bursty open-loop injection"},
		plain(TrafficBurst))
	Register(hmcsim.TrafficExp, Meta{Title: "Synthetic traffic: run the spec in options.traffic"},
		plain(Traffic))
}
