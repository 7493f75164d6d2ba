package service

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"hmcsim"
)

// TestBatchSubmit: a mixed batch resolves cache hits inline, queues the
// rest, and returns one view per spec in submission order.
func TestBatchSubmit(t *testing.T) {
	fake := newFake("e")
	s, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8}, fake)
	ctx := context.Background()

	// Warm the cache with seed 1.
	warm, err := c.Run(ctx, hmcsim.Spec{Exp: "e", Options: hmcsim.Options{Seed: 1}}, 5*time.Millisecond)
	if err != nil || warm.State != StateDone {
		t.Fatalf("warm-up: %v / %+v", err, warm)
	}
	// Hold the fresh runs until their views have been checked: a runner
	// that returns at once can finish before the batch response is
	// built, which would make the non-terminal check below timing-bound.
	// No run is in flight here, and the queue hands each job to a
	// worker, so setting the field now is race-free.
	fake.release = make(chan struct{})

	views, err := c.SubmitBatch(ctx, []hmcsim.Spec{
		{Exp: "e", Options: hmcsim.Options{Seed: 1}}, // cache hit
		{Exp: "e", Options: hmcsim.Options{Seed: 2}}, // fresh
		{Exp: "e", Options: hmcsim.Options{Seed: 2}}, // in-batch duplicate
		{Exp: "e", Options: hmcsim.Options{Seed: 3}}, // fresh
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 4 {
		t.Fatalf("got %d views, want 4", len(views))
	}
	if !views[0].Cached || views[0].State != StateDone {
		t.Fatalf("cache hit not resolved inline: %+v", views[0])
	}
	for i, v := range views[1:] {
		if v.State.Terminal() {
			t.Fatalf("fresh view %d already terminal: %+v", i+1, v)
		}
	}
	close(fake.release)
	for _, v := range views[1:] {
		if got := waitJob(t, c, v.ID); got.State != StateDone {
			t.Fatalf("job %s ended %s", v.ID, got.State)
		}
	}
	// The in-batch duplicate coalesced: seeds 1, 2, 3 ran once each.
	if n := fake.runs.Load(); n != 3 {
		t.Fatalf("runner ran %d times, want 3", n)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 || st.BatchSpecs != 4 {
		t.Fatalf("batch counters %d/%d, want 1/4", st.Batches, st.BatchSpecs)
	}
	if st.InflightPeak < 1 {
		t.Fatalf("inflight peak %d, want >= 1", st.InflightPeak)
	}
	_ = s
}

// TestBatchAllOrNothing: a batch needing more queue slots than are free
// is rejected whole — no job record, no queue slot, nothing partial.
func TestBatchAllOrNothing(t *testing.T) {
	blocker := newBlockingFake("slow")
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 2}, blocker)
	defer close(blocker.release)
	ctx := context.Background()

	// Occupy the worker so queued batches stay queued.
	if _, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"}); err != nil {
		t.Fatal(err)
	}
	<-blocker.started

	// Three distinct specs need three slots; only two exist.
	_, err := c.SubmitBatch(ctx, seedSpecs("slow", 3))
	if err == nil || !strings.Contains(err.Error(), "queue is full") {
		t.Fatalf("oversized batch: err = %v, want queue-full 503", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("queue-full batch error is %T (%v), want 503 APIError", err, err)
	}
	if apiErr.Code != codeQueueFull {
		t.Fatalf("queue-full code %q, want %q (the fleet keys off it)", apiErr.Code, codeQueueFull)
	}
	total := 0
	for _, n := range s.Snapshot().Jobs {
		total += n
	}
	if total != 1 {
		t.Fatalf("rejected batch left %d job records, want 1 (the blocker)", total)
	}
	if d := s.Snapshot().QueueDepth; d != 0 {
		t.Fatalf("rejected batch consumed %d queue slots", d)
	}

	// A batch that fits is admitted; duplicates of the running blocker
	// coalesce and need no slot at all.
	views, err := c.SubmitBatch(ctx, []hmcsim.Spec{
		{Exp: "slow"}, // duplicate of the running job: coalesces
		{Exp: "slow", Options: hmcsim.Options{Seed: 1}},
		{Exp: "slow", Options: hmcsim.Options{Seed: 2}},
	})
	if err != nil {
		t.Fatalf("fitting batch rejected: %v", err)
	}
	if len(views) != 3 {
		t.Fatalf("got %d views", len(views))
	}
}

// TestBatchRejectsBadSpec: one malformed spec rejects the whole batch
// with its index, creating nothing.
func TestBatchRejectsBadSpec(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1}, newFake("e"))
	_, err := c.SubmitBatch(context.Background(), []hmcsim.Spec{
		{Exp: "e"},
		{Exp: "nope"},
	})
	if err == nil || !strings.Contains(err.Error(), "spec 1") || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want indexed unknown-experiment 400", err)
	}
	if n := len(s.Snapshot().Jobs); n != 0 {
		t.Fatalf("rejected batch created %d jobs", n)
	}
	if _, err := c.SubmitBatch(context.Background(), nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestBatchRequestBoundScales: a multi-megabyte batch body — a whole
// sweep in one post — must clear the request bound and fail (here) on
// validation, not on "request body too large" at 1 MiB like the
// single-spec endpoint.
func TestBatchRequestBoundScales(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1}, newFake("e"))
	// 4000 specs x ~380 bytes ≈ 1.4 MiB — past the single-spec
	// endpoint's 1 MiB bound but inside the spec-count cap. Every spec
	// names an unknown experiment so nothing is admitted; the indexed
	// validation error proves the body was fully decoded.
	pad := strings.Repeat("unknown-experiment-", 16)
	specs := make([]hmcsim.Spec, 4000)
	for i := range specs {
		specs[i] = hmcsim.Spec{Exp: pad, Options: hmcsim.Options{Seed: uint64(i)}}
	}
	_, err := c.SubmitBatch(context.Background(), specs)
	if err == nil {
		t.Fatal("unknown-experiment batch accepted")
	}
	if strings.Contains(err.Error(), "too large") {
		t.Fatalf("large batch body rejected by the request bound: %v", err)
	}
	if !strings.Contains(err.Error(), "spec 0") || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want indexed unknown-experiment validation", err)
	}

	// Past the spec-count cap the batch is rejected outright, before
	// any validation or job creation.
	over := make([]hmcsim.Spec, MaxBatchSpecs+1)
	for i := range over {
		over[i] = hmcsim.Spec{Exp: "e", Options: hmcsim.Options{Seed: uint64(i)}}
	}
	if _, err := c.SubmitBatch(context.Background(), over); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized batch: err = %v, want spec-count limit rejection", err)
	}
}
