package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"hmcsim"
)

// TestFlightAttribution: the flight recorder attributes each completion
// correctly — a worker-run miss carries its worker index and queue/run
// durations, a submission-time hit shows Cached with Worker -1 — and
// the histograms only count queue wait for jobs a worker actually ran.
func TestFlightAttribution(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1}, newFake("e"))
	ctx := context.Background()

	spec := hmcsim.Spec{Exp: "e", Options: hmcsim.Options{Seed: 3}}
	v1, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v1.ID)
	v2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Fatalf("second submission not cached: %+v", v2)
	}

	fv, err := c.Flight(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Total != 2 || len(fv.Records) != 2 {
		t.Fatalf("flight has Total=%d, %d records, want 2/2", fv.Total, len(fv.Records))
	}
	// Newest first: the cache hit, then the miss.
	hit, miss := fv.Records[0], fv.Records[1]
	if hit.ID != v2.ID || !hit.Cached || hit.Worker != -1 || hit.RunMs != 0 {
		t.Fatalf("hit record wrong: %+v", hit)
	}
	if miss.ID != v1.ID || miss.Cached || miss.Worker < 0 {
		t.Fatalf("miss record wrong: %+v", miss)
	}
	if miss.Exp != "e" || miss.Key == "" || miss.State != StateDone {
		t.Fatalf("miss record identity wrong: %+v", miss)
	}
	if miss.TotalMs < miss.RunMs {
		t.Fatalf("miss TotalMs %.3f < RunMs %.3f", miss.TotalMs, miss.RunMs)
	}
	// Latency hist saw both completions; queue wait only the worker run.
	if fv.LatencyMs.Count != 2 {
		t.Fatalf("latency hist count %d, want 2", fv.LatencyMs.Count)
	}
	if fv.QueueWaitMs.Count != 1 {
		t.Fatalf("queue-wait hist count %d, want 1 (cache hit must not count)", fv.QueueWaitMs.Count)
	}
}

// syncBuffer is a mutex-guarded log sink: the slog handler writes from
// worker goroutines while the test polls String.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFlightRecordsTraceCorrelatedLog: a worker-run job stamps its
// flight record with the submitted trace ID, and the structured logger
// emits trace-correlated admitted/finished records.
func TestFlightRecordsTraceCorrelatedLog(t *testing.T) {
	var logBuf syncBuffer
	cfg := Config{
		Workers: 1,
		Logger:  slog.New(slog.NewJSONHandler(&logBuf, nil)),
	}
	_, c := newTestServer(t, cfg, newFake("e"))
	c.TraceID = "cafe0123cafe0123"
	ctx := context.Background()

	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID)
	fv, err := c.Flight(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fv.Records) != 1 {
		t.Fatalf("want 1 flight record, got %d", len(fv.Records))
	}
	if r := fv.Records[0]; r.TraceID != "cafe0123cafe0123" {
		t.Errorf("flight record TraceID = %q, want the submitted header value", r.TraceID)
	}

	// The finished record is logged inside the terminal transition;
	// give the buffered write a moment before asserting.
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logBuf.String(), "job finished") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	logs := logBuf.String()
	for _, want := range []string{"job admitted", "job finished", "cafe0123cafe0123"} {
		if !strings.Contains(logs, want) {
			t.Errorf("structured log missing %q:\n%s", want, logs)
		}
	}
}

// failRunner always fails, so failed jobs reach the flight recorder.
type failRunner struct{ name string }

func (f failRunner) Name() string     { return f.name }
func (f failRunner) Describe() string { return "always fails" }
func (f failRunner) Run(ctx context.Context, o hmcsim.Options) (hmcsim.Result, error) {
	return hmcsim.Result{}, fmt.Errorf("vault meltdown")
}

// TestFlightRecordsError: a failing job lands in the recorder with its
// state and error message.
func TestFlightRecordsError(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1}, failRunner{name: "e"})
	ctx := context.Background()

	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID)
	fv, err := c.Flight(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fv.Records) != 1 {
		t.Fatalf("want 1 record, got %d", len(fv.Records))
	}
	r := fv.Records[0]
	if r.State != StateFailed || !strings.Contains(r.Error, "vault meltdown") {
		t.Fatalf("failed job recorded as %+v", r)
	}
}

// TestFlightRingBounded: the ring holds only the configured number of
// entries, keeps the newest, and Total keeps counting past capacity.
func TestFlightRingBounded(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, FlightEntries: 4}, newFake("e"))
	ctx := context.Background()

	const n = 7
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		v, err := c.Submit(ctx, hmcsim.Spec{Exp: "e", Options: hmcsim.Options{Seed: uint64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, c, v.ID)
		ids[i] = v.ID
	}
	fv, err := c.Flight(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Capacity != 4 || fv.Total != n || len(fv.Records) != 4 {
		t.Fatalf("capacity=%d total=%d records=%d, want 4/%d/4", fv.Capacity, fv.Total, len(fv.Records), n)
	}
	// Jobs completed serially in submission order, so the retained set
	// is the last four IDs, newest first.
	for i, r := range fv.Records {
		if want := ids[n-1-i]; r.ID != want {
			t.Fatalf("record %d is job %s, want %s (eviction order wrong)", i, r.ID, want)
		}
	}
	// The histograms survive eviction: they saw every completion.
	if fv.LatencyMs.Count != n {
		t.Fatalf("latency hist count %d, want %d", fv.LatencyMs.Count, n)
	}
}

// TestFlightSlowThreshold: jobs slower than SlowJob are flagged and
// counted; SlowJob < 0 disables marking entirely.
func TestFlightSlowThreshold(t *testing.T) {
	fake := newFake("e")
	fake.delay = 10 * time.Millisecond
	_, c := newTestServer(t, Config{Workers: 1, SlowJob: time.Millisecond}, fake)
	ctx := context.Background()

	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID)
	fv, err := c.Flight(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Slow != 1 || !fv.Records[0].Slow {
		t.Fatalf("10ms job against 1ms threshold not flagged slow: slow=%d record=%+v", fv.Slow, fv.Records[0])
	}
	if fv.SlowThresholdMs != 1 {
		t.Fatalf("threshold echoed as %.3f ms, want 1", fv.SlowThresholdMs)
	}

	// Disabled threshold never flags.
	fake2 := newFake("e")
	fake2.delay = 10 * time.Millisecond
	_, c2 := newTestServer(t, Config{Workers: 1, SlowJob: -1}, fake2)
	v2, err := c2.Submit(ctx, hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c2, v2.ID)
	fv2, err := c2.Flight(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fv2.Slow != 0 || fv2.Records[0].Slow || fv2.SlowThresholdMs != 0 {
		t.Fatalf("disabled threshold still flagged: %+v", fv2)
	}
}

// TestMetricsLatencyHistograms: /metrics exports the flight recorder's
// histograms in real Prometheus exposition — cumulative _bucket series
// with le labels plus _sum and _count — and the slow-job counter.
func TestMetricsLatencyHistograms(t *testing.T) {
	fake := newFake("e")
	fake.delay = 2 * time.Millisecond
	_, c := newTestServer(t, Config{Workers: 1, SlowJob: time.Millisecond}, fake)
	ctx := context.Background()

	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID)

	resp, err := c.httpClient().Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(blob)
	for _, want := range []string{
		"# TYPE hmcsim_job_latency_ms histogram",
		`hmcsim_job_latency_ms_bucket{le="1"}`,
		`hmcsim_job_latency_ms_bucket{le="+Inf"} 1`,
		"hmcsim_job_latency_ms_sum",
		"hmcsim_job_latency_ms_count 1",
		"# TYPE hmcsim_job_queue_wait_ms histogram",
		`hmcsim_job_queue_wait_ms_bucket{le="+Inf"} 1`,
		"hmcsim_job_queue_wait_ms_count 1",
		"hmcsim_jobs_slow_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
