package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"hmcsim"
	"hmcsim/internal/exp"
	"hmcsim/internal/service"
	"hmcsim/internal/traffic"
)

// The service workload: two closed-loop clients against a two-worker
// in-process hmcsimd with its default cache, each drawing quick
// "traffic" specs whose seeds follow Zipf(0.99) over 512 ranks. About
// one job in six is a cold miss bound by the simulator; the rest are
// cache hits bound by HTTP, JSON and the cache.
const (
	serviceClients = 2
	serviceWorkers = 2
	serviceRanks   = 512
	serviceTheta   = 0.99
	// sampleSpecs is how many of client 0's first distinct specs are
	// re-run locally and compared byte for byte with what the daemon
	// returned.
	sampleSpecs = 4
	// setupRepeats daemon start-ups are timed and the median reported.
	setupRepeats = 11
)

// daemon is one in-process hmcsimd behind a loopback HTTP server.
type daemon struct {
	srv *service.Server
	ts  *httptest.Server
	cl  *service.Client
}

// startDaemon builds the server, starts listening and waits for the
// health check to answer.
func startDaemon(ctx context.Context) (*daemon, error) {
	srv := service.New(service.Config{Workers: serviceWorkers}, exp.Runners())
	ts := httptest.NewServer(srv.Handler())
	d := &daemon{srv: srv, ts: ts, cl: &service.Client{Base: ts.URL}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err == nil {
		var resp *http.Response
		if resp, err = ts.Client().Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz: %s", resp.Status)
			}
		}
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	return d, nil
}

func (d *daemon) close() {
	d.ts.Close()
	d.srv.Close()
}

// specStream yields one client's specs: Zipf-ranked seeds of the quick
// traffic experiment. The rank sequence is the same for every run, so
// every run sees the same pattern of hits and misses; the run seed picks
// which experiment seed each rank stands for, so each run seed is a
// different set of cache keys and simulations.
type specStream struct {
	gen     *traffic.Gen
	runSeed uint64
}

func newSpecStream(runSeed uint64, client int) (*specStream, error) {
	gen, err := traffic.Compile(hmcsim.TrafficSpec{
		Pattern:         hmcsim.TrafficZipf,
		ZipfTheta:       serviceTheta,
		WorkingSetBytes: serviceRanks * 16,
	}, 16, uint64(client)+1)
	if err != nil {
		return nil, fmt.Errorf("compile spec sampler: %w", err)
	}
	return &specStream{gen: gen, runSeed: runSeed}, nil
}

func (s *specStream) next() hmcsim.Spec {
	a, _ := s.gen.Next()
	rank := a / 16
	return hmcsim.Spec{Exp: hmcsim.TrafficExp, Options: hmcsim.Options{
		Quick: true,
		Seed:  splitmix64(s.runSeed^0x5eed0000+rank) | 1,
	}}
}

// job is one client operation: Submit until the terminal view.
type job struct {
	spec    hmcsim.Spec
	view    service.JobView
	latency time.Duration
	hit     bool // served from the cache at submission
	err     error
	stages  service.SpanView // traced phase only
	done    int              // completion order within the phase
}

// clientLoop submits specs back to back until the deadline, waiting for
// each job's terminal view through the progress stream.
func clientLoop(ctx context.Context, d *daemon, stream *specStream, deadline time.Time, traced bool, sp *spans, onDone func() int) []job {
	var jobs []job
	for time.Now().Before(deadline) {
		j := job{spec: stream.next()}
		root := sp.begin("job", 0)
		t0 := time.Now()
		s := sp.begin("client.Submit", root)
		j.view, j.err = d.cl.Submit(ctx, j.spec)
		sp.end(s)
		j.hit = j.err == nil && j.view.State.Terminal()
		if j.err == nil && !j.hit {
			s = sp.begin("client.WatchJob", root)
			j.view, j.err = d.cl.WatchJob(ctx, j.view.ID, nil)
			sp.end(s)
		}
		j.latency = time.Since(t0)
		j.view.Text = "" // only Result is checked; keep client memory small
		if traced && j.err == nil {
			s = sp.begin("client.Spans", root)
			j.stages, j.err = d.cl.Spans(ctx, j.view.ID)
			sp.end(s)
		}
		sp.end(root)
		j.done = onDone()
		jobs = append(jobs, j)
	}
	return jobs
}

// phase is what one serving phase measured, over its first target jobs.
type phase struct {
	jobs    []job         // every job, all checked
	target  int           // the measured jobs: those with done < target
	elapsed time.Duration // until the target-th job finished
	ref     time.Duration // median reference kernel time during the phase
	memMB   float64       // peak RSS when the target-th job finished
}

// targetJobsPerSec sizes the measured work: a phase of budget b measures
// its first b x 180 jobs, about 75% of what the sandbox serves in b. The
// figures are read at fixed work because the daemon keeps every job
// record for 30 s and scans them all on each submission, so per-job cost
// and memory grow with the number of jobs served so far; read at a fixed
// time, they would depend on how many jobs the host managed. If a slow
// host does not reach the target, the whole phase is measured.
const targetJobsPerSec = 180

// servePhase runs the closed-loop clients against d for budget, with a
// calibrator sampling the reference kernel alongside.
func servePhase(ctx context.Context, d *daemon, runSeed uint64, budget time.Duration, traced bool, sp *spans) (phase, error) {
	streams := make([]*specStream, serviceClients)
	for c := range streams {
		var err error
		if streams[c], err = newSpecStream(runSeed, c); err != nil {
			return phase{}, err
		}
	}
	p := phase{target: max(1, int(budget.Seconds()*targetJobsPerSec))}
	var done atomic.Int64
	var atTarget sync.Once
	start := time.Now()
	reached := func() {
		p.elapsed = time.Since(start)
		p.memMB = peakRSSMB()
	}
	onDone := func() int {
		n := int(done.Add(1))
		if n == p.target {
			atTarget.Do(reached)
		}
		return n - 1
	}
	perClient := make([][]job, serviceClients)
	cal := startCalibrator(250 * time.Millisecond)
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			perClient[c] = clientLoop(ctx, d, streams[c], deadline, traced, sp, onDone)
		}(c)
	}
	wg.Wait()
	atTarget.Do(reached) // the target was not reached: measure everything
	p.ref = cal.median()
	for _, js := range perClient {
		p.jobs = append(p.jobs, js...)
	}
	return p, nil
}

// measured returns the jobs the phase's figures are read over.
func (p phase) measured() []job {
	var out []job
	for _, j := range p.jobs {
		if j.done < p.target {
			out = append(out, j)
		}
	}
	return out
}

// jobsPerSec is the phase's calibrated job throughput.
func (p phase) jobsPerSec() float64 {
	return float64(len(p.measured())) * 1e9 / scale(p.elapsed, p.ref)
}

// latencies returns calibrated client latencies in ms: all measured
// jobs, cold misses and cache hits.
func (p phase) latencies() (all, cold, hit []float64) {
	for _, j := range p.measured() {
		ms := scale(j.latency, p.ref) / 1e6
		all = append(all, ms)
		if j.hit {
			hit = append(hit, ms)
		} else {
			cold = append(cold, ms)
		}
	}
	return all, cold, hit
}

func runService(cfg runConfig) (*report, error) {
	// Bounded so a wedged daemon fails the run instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds+90*time.Second)
	defer cancel()
	rep := newReport()

	// Daemon start-ups are timed between reference kernel runs, so their
	// calibration sees the same host speed.
	var setups, refs []time.Duration
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		refs = append(refs, timeRef())
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		if i < setupRepeats-1 {
			d.close()
		}
	}
	defer d.close()

	var prof bytes.Buffer
	if cfg.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	p, err := servePhase(ctx, d, cfg.seed, budget, false, nil)
	if cfg.trace {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	if err := checkJobs(ctx, rep, p.jobs, cfg.perturb); err != nil {
		return nil, err
	}
	all, cold, hit := p.latencies()
	fmt.Printf("jobs %d, measured the first %d in %.2f s: %d cold misses, %d cache hits; uncalibrated %.6g jobs/s; reference kernel %.4g ms\n",
		len(p.jobs), len(all), p.elapsed.Seconds(), len(cold), len(hit),
		float64(len(all))/p.elapsed.Seconds(), float64(p.ref.Nanoseconds())/1e6)
	if !cfg.trace {
		var setup []float64
		for i := range setups {
			setup = append(setup, scale(setups[i], refs[i])/1e9)
		}
		rep.metrics["setup_s"] = quantile(setup, 0.5)
		rep.metrics["ops_per_s"] = p.jobsPerSec()
		rep.metrics["p50_ms"] = quantile(all, 0.5)
		rep.metrics["p95_ms"] = quantile(all, 0.95)
		rep.metrics["mem_peak_mb"] = p.memMB
		return rep, nil
	}

	m := rep.metrics
	m["service.cold_p50_ms"] = quantile(cold, 0.5)
	m["service.cold_p95_ms"] = quantile(cold, 0.95)
	m["service.cold_jobs"] = float64(len(cold))
	m["service.hit_p50_ms"] = quantile(hit, 0.5)
	m["service.hit_p95_ms"] = quantile(hit, 0.95)
	m["service.hit_jobs"] = float64(len(hit))
	m["calib.ref_ms"] = float64(p.ref.Nanoseconds()) / 1e6
	var errs []float64
	for _, j := range p.measured() {
		if gbps, err := resultGBps(j.view.Result); err == nil && !j.hit {
			errs = append(errs, pctErr(gbps, paperSpreadGBps))
		}
	}
	m["paper_err_pct"] = quantile(errs, 0.5)
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		m[k] = v
	}

	// Traced phase: a fresh daemon (cold cache again), the same spec
	// streams, and every job's server-side stage spans fetched.
	sp := newSpans(fmt.Sprintf("service-zipf-%d", cfg.seed))
	td, err := startDaemon(ctx)
	if err != nil {
		return nil, err
	}
	defer td.close()
	tp, err := servePhase(ctx, td, cfg.seed, budget, true, sp)
	if err != nil {
		return nil, err
	}
	if err := checkJobs(ctx, rep, tp.jobs, false); err != nil {
		return nil, err
	}
	// Server spans are wall-clock stage times; they are calibrated with
	// the traced phase's kernel time like the client's latencies.
	ms := func(wallMs float64) float64 { return wallMs * float64(refNominal) / float64(tp.ref) }
	var queued, running, marshal, overhead []float64
	for _, j := range tp.measured() {
		overhead = append(overhead, ms(float64(j.latency.Nanoseconds())/1e6-j.stages.TotalMs))
		if j.hit {
			continue
		}
		for _, st := range j.stages.Stages {
			switch st.Name {
			case "queued":
				queued = append(queued, ms(st.DurMs))
			case "running":
				running = append(running, ms(st.DurMs))
			case "marshal":
				marshal = append(marshal, ms(st.DurMs))
			}
		}
	}
	m["service.queue_wait_ms"] = quantile(queued, 0.5)
	m["service.run_ms"] = quantile(running, 0.5)
	m["service.marshal_ms"] = quantile(marshal, 0.5)
	m["client.overhead_ms"] = quantile(overhead, 0.5)
	stats, err := td.cl.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	if n := stats.Cache.Hits + stats.Cache.Misses; n > 0 {
		m["service.cache_hit_ratio"] = float64(stats.Cache.Hits) / float64(n)
	}
	m["trace.overhead_pct"] = 100 * (p.jobsPerSec()/tp.jobsPerSec() - 1)
	if err := writeTraced(cfg.out, prof.Bytes(), sp, "stats.json", stats); err != nil {
		return nil, err
	}
	return rep, nil
}

// resultGBps extracts the single bandwidth point of a traffic result.
func resultGBps(raw json.RawMessage) (float64, error) {
	var res hmcsim.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return 0, err
	}
	for _, s := range res.Series {
		if s.Name == "bandwidth" && len(s.Points) == 1 {
			return s.Points[0].Y, nil
		}
	}
	return 0, fmt.Errorf("result has no single bandwidth point")
}

// checkJobs checks every job after the timed window and counts each as
// one operation. A job fails if it errored or did not finish, if its
// bandwidth leaves the paper's 20-24 GB/s band (the quick traffic
// default is GUPS-like uniform 128 B reads over all vaults), or if it
// is one of the sampled specs and its bytes differ from a local
// exp.Run of the same spec. perturb corrupts one sampled result.
func checkJobs(ctx context.Context, rep *report, jobs []job, perturb bool) error {
	refs := map[string]reference{} // by spec key
	for _, j := range jobs {
		if len(refs) == sampleSpecs {
			break
		}
		key, err := j.spec.Key()
		if err != nil {
			return err
		}
		if _, ok := refs[key]; ok {
			continue
		}
		ref, err := localResult(ctx, j.spec)
		if err != nil {
			return err
		}
		refs[key] = ref
	}
	for i, j := range jobs {
		rep.op(checkJob(j, refs, perturb && i == 0))
	}
	return nil
}

func checkJob(j job, refs map[string]reference, corrupt bool) error {
	if j.err != nil {
		return j.err
	}
	if j.view.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", j.view.ID, j.view.State, j.view.Error)
	}
	gbps, err := resultGBps(j.view.Result)
	if err != nil {
		return fmt.Errorf("job %s: %w", j.view.ID, err)
	}
	if gbps < 20 || gbps > 24 {
		return fmt.Errorf("job %s: 16 vaults 128B = %.2f GB/s, want 20-24", j.view.ID, gbps)
	}
	key, err := j.spec.Key()
	if err != nil {
		return err
	}
	ref, ok := refs[key]
	if !ok {
		return nil
	}
	if ref.err != nil {
		return fmt.Errorf("job %s: %w", j.view.ID, ref.err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, j.view.Result); err != nil {
		return fmt.Errorf("job %s: %w", j.view.ID, err)
	}
	if corrupt {
		got.WriteByte(' ')
	}
	if !bytes.Equal(got.Bytes(), ref.raw) {
		return fmt.Errorf("job %s: result differs from a local run of the same spec", j.view.ID)
	}
	return nil
}

// reference is what a sampled spec's daemon result must equal: the
// compact bytes of a local exp.Run, or the error a local replay found.
type reference struct {
	raw []byte
	err error
}

// localResult runs spec in process. It also replays the experiment's
// one traffic point on a System of its own, to check packet
// conservation (the daemon's systems are out of reach) and that the
// replay measures the bandwidth the experiment reported.
func localResult(ctx context.Context, spec hmcsim.Spec) (reference, error) {
	res, err := exp.Run(ctx, spec.Exp, spec.Options)
	if err != nil {
		return reference{}, fmt.Errorf("local %s: %w", spec.Exp, err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return reference{}, err
	}
	o := spec.Options
	sys := o.NewSystem()
	m := hmcsim.TrafficWorkload{Traffic: exp.DefaultTrafficSpec, Ports: 9, Size: 128,
		Warmup: o.Warmup(), Window: o.Window()}.Run(sys)
	ref := reference{raw: raw, err: conserved(sys)}
	if gbps, err := resultGBps(raw); ref.err == nil && (err != nil || gbps != m.GBps) {
		ref.err = fmt.Errorf("local replay measured %v GB/s, the experiment %v (%v)", m.GBps, gbps, err)
	}
	return ref, nil
}
