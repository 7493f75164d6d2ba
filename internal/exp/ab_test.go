package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hmcsim"
)

// TestABGuard is the kernel-rewrite safety net: every registered
// experiment's quick-mode Result JSON must be byte-identical to the
// golden snapshot in testdata/ab/, which was captured from the
// pre-optimization (container/heap + slice-FIFO + per-packet-alloc)
// kernel. Any change to event ordering, queue semantics, or packet
// lifetime that alters simulation results shows up here as a diff.
//
// Regenerate the snapshots (only when a result change is intended and
// understood) with:
//
//	HMCSIM_AB_UPDATE=1 go test ./internal/exp -run TestABGuard
func TestABGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("A/B guard runs every registered experiment; skipped with -short")
	}
	update := os.Getenv("HMCSIM_AB_UPDATE") != ""
	if update {
		if err := os.MkdirAll(filepath.Join("testdata", "ab"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			got := runJSON(t, name, Options{Quick: true})
			path := filepath.Join("testdata", "ab", name+".json")
			if update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden snapshot (run with HMCSIM_AB_UPDATE=1 to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: Result JSON differs from the pre-optimization golden snapshot (%d vs %d bytes); the kernel change altered simulation behavior", name, len(got), len(want))
			}
		})
	}
}

// TestTracedABGuard is the observe-only contract of the tracers at the
// result level: a run with trace summaries and timelines attached must
// produce Result JSON byte-identical to the untraced golden. Telemetry
// that perturbed event ordering, or leaked into the Result, would diff
// here.
func TestTracedABGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("traced A/B guard runs full quick experiments; skipped with -short")
	}
	for _, name := range []string{"fig6", "traffic-zipf"} {
		name := name
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "ab", name+".json"))
			if err != nil {
				t.Fatalf("missing golden snapshot (run with HMCSIM_AB_UPDATE=1 to create): %v", err)
			}
			ctx, tc := hmcsim.WithTrace(context.Background())
			ctx, tlc := hmcsim.WithTimeline(ctx)
			got := runJSONCtx(t, ctx, name, Options{Quick: true, Workers: 1})
			if !bytes.Equal(got, want) {
				t.Errorf("%s with tracers attached: Result JSON differs from the untraced golden (%d vs %d bytes); telemetry must observe, never perturb",
					name, len(got), len(want))
			}
			if tc.Systems() == 0 || tlc.Systems() == 0 {
				t.Errorf("collectors saw %d traced and %d timeline systems; the tracers were not wired",
					tc.Systems(), tlc.Systems())
			}
		})
	}
}

// TestTracedShardedABGuard extends the observe-only contract to a sweep
// whose points are sharded across several concurrent workers: each
// point builds its own single-engine System, and every System feeds the
// same trace and timeline collectors at once. The Result JSON must
// still match the untraced golden byte for byte. The one-worker case is
// TestTracedABGuard.
func TestTracedShardedABGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("traced sharded A/B guard runs full quick experiments; skipped with -short")
	}
	for _, name := range []string{"fig6", "traffic-zipf"} {
		for _, shards := range []int{2, 4} {
			name, shards := name, shards
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				want, err := os.ReadFile(filepath.Join("testdata", "ab", name+".json"))
				if err != nil {
					t.Fatalf("missing golden snapshot (run with HMCSIM_AB_UPDATE=1 to create): %v", err)
				}
				ctx, tc := hmcsim.WithTrace(context.Background())
				ctx, tlc := hmcsim.WithTimeline(ctx)
				got := runJSONCtx(t, ctx, name, Options{Quick: true, Workers: shards})
				if !bytes.Equal(got, want) {
					t.Errorf("%s sharded across %d workers with tracers attached: Result JSON differs from the untraced golden (%d vs %d bytes); telemetry must observe, never perturb",
						name, shards, len(got), len(want))
				}
				if tc.Systems() < 2 || tlc.Systems() < 2 {
					t.Errorf("collectors saw %d traced and %d timeline systems, want several from the sharded sweep",
						tc.Systems(), tlc.Systems())
				}
			})
		}
	}
}
