package mcm

import (
	"context"
	"errors"
	"testing"

	"repro/internal/rat"
)

func TestMaxCycleRatioEdges(t *testing.T) {
	t.Run("two-node cycle", func(t *testing.T) {
		res, err := MaxCycleRatioEdges(context.Background(), 2, []Edge{
			{From: 0, To: 1, W: 3, D: 1},
			{From: 1, To: 0, W: 1, D: 1},
		})
		if err != nil {
			t.Fatalf("MaxCycleRatioEdges: %v", err)
		}
		if !res.HasCycle || !res.CycleRatio.Equal(rat.FromInt(2)) {
			t.Fatalf("got %v (cycle=%v), want 2", res.CycleRatio, res.HasCycle)
		}
		if len(res.Critical) != 2 {
			t.Fatalf("critical cycle %v, want both nodes", res.Critical)
		}
	})
	t.Run("self-loop dominates", func(t *testing.T) {
		res, err := MaxCycleRatioEdges(context.Background(), 2, []Edge{
			{From: 0, To: 1, W: 3, D: 1},
			{From: 1, To: 0, W: 1, D: 1},
			{From: 1, To: 1, W: 5, D: 1},
		})
		if err != nil {
			t.Fatalf("MaxCycleRatioEdges: %v", err)
		}
		if !res.CycleRatio.Equal(rat.FromInt(5)) {
			t.Fatalf("got %v, want 5", res.CycleRatio)
		}
	})
	t.Run("acyclic", func(t *testing.T) {
		res, err := MaxCycleRatioEdges(context.Background(), 3, []Edge{
			{From: 0, To: 1, W: 7, D: 1},
			{From: 1, To: 2, W: 7, D: 1},
		})
		if err != nil {
			t.Fatalf("MaxCycleRatioEdges: %v", err)
		}
		if res.HasCycle {
			t.Fatalf("acyclic edge list reported a cycle: %v", res.CycleRatio)
		}
	})
	t.Run("zero-delay cycle", func(t *testing.T) {
		_, err := MaxCycleRatioEdges(context.Background(), 2, []Edge{
			{From: 0, To: 1, W: 1, D: 0},
			{From: 1, To: 0, W: 1, D: 0},
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("err = %v, want ErrDeadlock", err)
		}
	})
	t.Run("rejects out-of-range and negative delay", func(t *testing.T) {
		if _, err := MaxCycleRatioEdges(context.Background(), 1, []Edge{{From: 0, To: 1, W: 1, D: 1}}); err == nil {
			t.Fatalf("out-of-range edge accepted")
		}
		if _, err := MaxCycleRatioEdges(context.Background(), 1, []Edge{{From: 0, To: 0, W: 1, D: -1}}); err == nil {
			t.Fatalf("negative delay accepted")
		}
	})
	t.Run("agrees with graph path", func(t *testing.T) {
		// The ratio of mixed cycles: 0->1->0 mean 2, triangle
		// 0->1->2->0 mean (3+1+8)/3 = 4.
		res, err := MaxCycleRatioEdges(context.Background(), 3, []Edge{
			{From: 0, To: 1, W: 3, D: 1},
			{From: 1, To: 0, W: 1, D: 1},
			{From: 1, To: 2, W: 1, D: 1},
			{From: 2, To: 0, W: 8, D: 1},
		})
		if err != nil {
			t.Fatalf("MaxCycleRatioEdges: %v", err)
		}
		if !res.CycleRatio.Equal(rat.FromInt(4)) {
			t.Fatalf("got %v, want 4", res.CycleRatio)
		}
	})
}
