// Command perfbench is hmcsim's benchmark: four workloads that drive the
// serial simulation engine and the hmcsimd service through their public
// entry points, check every output, and print each metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with all
// tracing off; with --trace 1 they are the per-layer set, taken from a
// run with the obs collector, a CPU profile and span recording attached.
// See README.md for the workloads and what each metric should move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload gups-spread --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's whole vocabulary; BENCHMARK.json lists the same
// names (the self-test checks that they agree).
type metricDef struct{ name, unit string }

// endToEnd is printed with --trace 0 on every workload. "op" is one
// simulated transaction on the simulator workloads and one job on the
// service workload; p50/p95 time one Run call or one job.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"mem_peak_mb", "MB"},
}

// perLayer is printed with --trace 1 on every workload. A layer a
// workload does not exercise reads 0 (see README.md for which).
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_txn", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending", "count"},
	{"host.requests", "count"},
	{"host.tag_waits", "count"},
	{"host.ctrl_util", "ratio"},
	{"link.flits", "count"},
	{"link.retries", "count"},
	{"link.util_resp", "ratio"},
	{"noc.hops", "count"},
	{"noc.credit_stalls", "count"},
	{"noc.hop_queue_mean", "count"},
	{"hmc.outstanding_mean", "count"},
	{"hmc.lat_ns", "ns"},
	{"paper_err_pct", "%"},
	{"vault.accepts", "count"},
	{"vault.rejects", "count"},
	{"vault.accept_ratio", "ratio"},
	{"vault.occupancy_mean", "count"},
	{"vault.tsv_util", "ratio"},
	{"traffic.compile_s", "s"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.marshal_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"client.overhead_ms", "ms"},
	{"service.cold_p50_ms", "ms"},
	{"service.cold_p95_ms", "ms"},
	{"service.cold_jobs", "count"},
	{"service.hit_p50_ms", "ms"},
	{"service.hit_p95_ms", "ms"},
	{"service.hit_jobs", "count"},
	{"cpu.sim", "%"},
	{"cpu.sim_queue", "%"},
	{"cpu.host", "%"},
	{"cpu.link", "%"},
	{"cpu.noc", "%"},
	{"cpu.hmc", "%"},
	{"cpu.vault", "%"},
	{"cpu.dram", "%"},
	{"cpu.packet", "%"},
	{"cpu.traffic", "%"},
	{"cpu.service", "%"},
	{"cpu.other", "%"},
	{"cpu.runtime", "%"},
	{"cpu.samples", "count"},
	{"trace.overhead_pct", "%"},
	{"calib.ref_ms", "ms"},
}

// runConfig is what every workload receives: the generated-input seed,
// the measuring budget, and the trace switch.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	out     string // directory for traced artifacts (spans, CPU profile)
	// perturb corrupts one measured statistic before it is checked, so
	// the self-test can prove a wrong output counts as a failed op.
	perturb bool
}

// report is one workload's result: operation counts and metric values
// by name. Metrics a workload does not set print as 0.
type report struct {
	attempted, failed int
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// op records one checked operation.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: failed op: %v\n", err)
	}
}

// workloads maps each workload name to its runner; README.md gives why
// each was chosen.
var workloads = map[string]func(runConfig) (*report, error){
	"gups-spread":    gupsSpread.run,
	"gups-1bank":     gups1Bank.run,
	"traffic-openrw": trafficOpenRW.run,
	"service-zipf":   runService,
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measuring budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for traced artifacts")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	// A fixed thread budget keeps figures comparable across machines:
	// one simulation thread plus one for the GC, the daemon's second
	// worker or the second client.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		out:     filepath.Join(*out, "trace", *name),
	}
	env := environment(*name, cfg)
	envJSON, _ := json.Marshal(env) // a map of strings and numbers always marshals
	fmt.Printf("env %s\n", envJSON)

	rep, err := run(cfg)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *name, err))
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := writeArtifact(cfg.out, "env.json", env); err != nil {
			fail(err)
		}
	}
	line, err := rep.render(defs)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *name, err))
	}
	fmt.Println(line)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// render prints every metric of defs as a readable line, then returns
// the final JSON result line.
func (r *report) render(defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Printf("metric %-24s %16.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = value{v, d.unit}
	}
	fmt.Printf("ops attempted=%d failed=%d failed_frac=%g\n", r.attempted, r.failed, r.failedFrac())
	blob, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	return string(blob), err
}

func (r *report) failedFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// environment records what the figures depend on besides the code.
func environment(name string, cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	if blob, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// writeArtifact stores one traced-run artifact as indented JSON.
func writeArtifact(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", name, err)
	}
	return os.WriteFile(filepath.Join(dir, name), blob, 0o644)
}

// writeTraced stores a traced run's artifacts: the CPU profile, the
// spans, and one layer summary under the given file name.
func writeTraced(dir string, prof []byte, sp *spans, name string, summary any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof, 0o644); err != nil {
		return err
	}
	if err := writeArtifact(dir, "spans.json", sp.file()); err != nil {
		return err
	}
	return writeArtifact(dir, name, summary)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// splitmix64 derives independent per-operation seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
