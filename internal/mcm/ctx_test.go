package mcm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/mcm"
	"repro/internal/serve"
	"repro/internal/transform"
)

// TestMaxCycleRatioHonoursContext: Howard's iteration polls its context
// once per round, so an already-canceled or expired context returns the
// context's error before the first round, and the serving layer
// classifies it as a cancellation or a deadline.
func TestMaxCycleRatioHonoursContext(t *testing.T) {
	h, _, err := transform.Traditional(gen.Figure2())
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = mcm.MaxCycleRatio(canceled, h)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled: err = %v, want context.Canceled wrapped in guard.ErrCanceled", err)
	}
	if kind := serve.KindOf(err); kind != "canceled" {
		t.Errorf("canceled: kind = %q, want canceled", kind)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	edges := []mcm.Edge{{From: 0, To: 1, W: 2, D: 0}, {From: 1, To: 0, W: 3, D: 1}}
	_, err = mcm.MaxCycleRatioEdges(expired, 2, edges)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired: err = %v, want context.DeadlineExceeded", err)
	}
	if kind := serve.KindOf(err); kind != "deadline" {
		t.Errorf("expired: kind = %q, want deadline", kind)
	}
}
