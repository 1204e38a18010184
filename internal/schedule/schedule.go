// Package schedule constructs periodic admissible sequential schedules
// (PASS) for consistent SDF graphs, following the class-S
// demand-driven algorithm of Lee and Messerschmitt. The DAC'09 paper's
// Algorithm 1 (the novel SDF→HSDF conversion) executes one such schedule
// symbolically; failing to find a schedule means the graph deadlocks.
package schedule

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/guard"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// ErrDeadlock indicates that no actor can fire although the iteration is
// incomplete: the graph deadlocks under any schedule (insufficient initial
// tokens on some cycle).
var ErrDeadlock = errors.New("schedule: graph deadlocks")

// Sequential returns a single-iteration sequential schedule: a sequence of
// actor firings in which every actor a appears exactly q(a) times, tokens
// never go negative, and the token distribution after the sequence equals
// the initial one. The graph must be consistent.
//
// Among the many valid schedules, any one works for the symbolic
// conversion (the resulting max-plus matrix is schedule-independent); this
// implementation fires each ready actor as often as currently possible,
// which keeps the schedule construction linear in the iteration length.
func Sequential(g *sdf.Graph) ([]sdf.ActorID, error) {
	return SequentialCtx(guard.WithBudget(context.Background(), guard.Unlimited()), g)
}

// SequentialCtx is Sequential under the resilience runtime: the schedule
// length Σq is checked against the firing budget carried by ctx before
// any work starts (an iteration length that overflows int64 is refused
// outright), and the construction loop checkpoints the context so a
// deadline or cancellation interrupts even an explosive graph promptly.
func SequentialCtx(ctx context.Context, g *sdf.Graph) ([]sdf.ActorID, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	n := g.NumActors()
	if n == 0 {
		return nil, nil
	}

	meter := guard.NewMeter(ctx, "schedule")
	meter.Phase("precheck")
	remaining := make([]int64, n)
	total := int64(0)
	for i, v := range q {
		remaining[i] = v
		s, ok := rat.AddChecked(total, v)
		if !ok {
			total = -1
			break
		}
		total = s
	}
	if total < 0 {
		return nil, fmt.Errorf("schedule: iteration length Σq overflows int64: %w",
			meter.NeedFirings(-1))
	}
	if err := meter.NeedFirings(total); err != nil {
		return nil, fmt.Errorf("schedule: iteration length %d: %w", total, err)
	}
	meter.Phase("construct")

	inCh := make([][]sdf.ChannelID, n)
	outCh := make([][]sdf.ChannelID, n)
	for i := range g.Channels() {
		id := sdf.ChannelID(i)
		inCh[g.Channel(id).Dst] = append(inCh[g.Channel(id).Dst], id)
		outCh[g.Channel(id).Src] = append(outCh[g.Channel(id).Src], id)
	}
	tokens := make([]int64, g.NumChannels())
	for i, c := range g.Channels() {
		tokens[i] = int64(c.Initial)
	}

	canFire := func(a sdf.ActorID) bool {
		if remaining[a] == 0 {
			return false
		}
		for _, id := range inCh[a] {
			if tokens[id] < int64(g.Channel(id).Cons) {
				return false
			}
		}
		return true
	}

	// The capacity is clamped, and the grant is a fault-injection point:
	// an adversarial Σq must not allocate gigabytes before the first
	// checkpoint can fire.
	schedCap, err := meter.Alloc(total)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	sched := make([]sdf.ActorID, 0, schedCap)
	for int64(len(sched)) < total {
		progressed := false
		for a := sdf.ActorID(0); int(a) < n; a++ {
			for canFire(a) {
				// Consume before producing so that a self-loop requires its
				// tokens up front.
				for _, id := range inCh[a] {
					tokens[id] -= int64(g.Channel(id).Cons)
				}
				for _, id := range outCh[a] {
					tokens[id] += int64(g.Channel(id).Prod)
				}
				remaining[a]--
				sched = append(sched, a)
				progressed = true
				if err := meter.Firings(1); err != nil {
					return nil, fmt.Errorf("schedule: after %d of %d firings: %w", len(sched), total, err)
				}
			}
		}
		if !progressed {
			return nil, fmt.Errorf("schedule: after %d of %d firings: %w", len(sched), total, ErrDeadlock)
		}
	}
	return sched, nil
}

// IsLive reports whether the graph admits a complete iteration (is
// deadlock-free). Inconsistent graphs are reported as not live.
func IsLive(g *sdf.Graph) bool {
	_, err := Sequential(g)
	return err == nil
}
