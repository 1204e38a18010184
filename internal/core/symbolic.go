// Package core implements the two reduction techniques of the DAC'09
// paper "Reduction Techniques for Synchronous Dataflow Graphs":
//
//   - the abstraction method of Sections 4–5 (Definitions 3–5), which
//     merges groups of equal-rate actors into single abstract actors and
//     yields a smaller graph whose throughput conservatively bounds the
//     original, and
//   - the novel SDF→HSDF conversion of Section 6 (Algorithm 1), which
//     executes one graph iteration symbolically in max-plus algebra to
//     obtain an N×N matrix over the N initial tokens and then constructs
//     an HSDF graph of at most N(N+2) actors from it.
package core

import (
	"context"
	"fmt"

	"repro/internal/guard"
	"repro/internal/maxplus"
	"repro/internal/rat"
	"repro/internal/schedule"
	"repro/internal/sdf"
)

// SymbolicResult is the outcome of the symbolic execution of one iteration
// of an SDF graph (Algorithm 1, lines 1–11).
type SymbolicResult struct {
	// Matrix is the max-plus iteration matrix in Apply convention:
	// Matrix.At(k, j) is the paper's coefficient g_{j,k}, so the token
	// time stamps evolve as t' = Matrix ⊗ t. Its dimension is the number
	// of initial tokens of the graph.
	Matrix *maxplus.Matrix
	// TokenChannel maps each global initial-token index to the channel
	// holding it. Tokens are numbered channel by channel in channel-ID
	// order and within a channel from the front of the FIFO (consumed
	// first) to the back.
	TokenChannel []sdf.ChannelID
	// Schedule is the sequential single-iteration schedule that was
	// executed. The matrix itself is schedule-independent.
	Schedule []sdf.ActorID
	// Completion is the entrywise maximum over the symbolic end times of
	// all firings of the iteration. With all initial tokens available at
	// time 0, the makespan of one iteration is its largest entry.
	Completion maxplus.Vec
	// ActorCompletion[a] is the symbolic end time of the last firing of
	// actor a in the iteration: the vector v with
	// end(a) = max_j (t_j + v[j]). It identifies the completion of a
	// dedicated output actor, the firing the paper notes can be tracked
	// through the constructed HSDF graph (see BuildOptions.Observe).
	ActorCompletion []maxplus.Vec
}

// Makespan returns the completion time of a single iteration started with
// every initial token available at time 0 — the quantity the paper
// computes by hand for the Figure 1 example ("a single execution of the
// graph takes 23 time units"). ok is false when no firing depends on any
// initial token.
func (r *SymbolicResult) Makespan() (int64, bool) {
	m := r.Completion.MaxEntry()
	if m.IsNegInf() {
		return 0, false
	}
	return m.Int(), true
}

// SymbolicIteration performs the symbolic self-timed execution of one
// complete iteration of g (Algorithm 1): every initial token is labelled
// with a max-plus unit vector, the schedule is executed with token time
// stamps computed as entrywise maxima plus execution times, and the
// resulting vectors of the final token distribution form the iteration
// matrix. The graph must be consistent and deadlock-free.
func SymbolicIteration(g *sdf.Graph) (*SymbolicResult, error) {
	return SymbolicIterationCtx(guard.WithBudget(context.Background(), guard.Unlimited()), g)
}

// SymbolicIterationCtx is SymbolicIteration under the resilience
// runtime: the token count is checked against the budget carried by ctx
// (the result is a dense N×N matrix), the schedule construction runs
// under the same budget, and the symbolic execution loop checkpoints
// the context once per firing.
func SymbolicIterationCtx(ctx context.Context, g *sdf.Graph) (*SymbolicResult, error) {
	meter := guard.NewMeter(ctx, "symbolic")
	meter.Phase("precheck")
	if err := meter.NeedTokens(int64(g.TotalInitialTokens())); err != nil {
		return nil, fmt.Errorf("core: symbolic iteration: %w", err)
	}
	sched, err := schedule.SequentialCtx(ctx, g)
	if err != nil {
		return nil, fmt.Errorf("core: symbolic iteration: %w", err)
	}
	if err := checkTimeHeadroom(g, len(sched)); err != nil {
		return nil, fmt.Errorf("core: symbolic iteration: %w", err)
	}
	meter.Phase("execute")

	// Global numbering of initial tokens.
	n := g.TotalInitialTokens()
	tokenChannel := make([]sdf.ChannelID, 0, n)
	queues := make([][]maxplus.Vec, g.NumChannels())
	idx := 0
	for i, c := range g.Channels() {
		for t := 0; t < c.Initial; t++ {
			queues[i] = append(queues[i], maxplus.UnitVec(n, idx))
			tokenChannel = append(tokenChannel, sdf.ChannelID(i))
			idx++
		}
	}

	inCh := make([][]sdf.ChannelID, g.NumActors())
	outCh := make([][]sdf.ChannelID, g.NumActors())
	for i := range g.Channels() {
		id := sdf.ChannelID(i)
		c := g.Channel(id)
		inCh[c.Dst] = append(inCh[c.Dst], id)
		outCh[c.Src] = append(outCh[c.Src], id)
	}

	completion := maxplus.NewVec(n)
	actorCompletion := make([]maxplus.Vec, g.NumActors())
	for pos, a := range sched {
		if err := meter.Firings(1); err != nil {
			return nil, fmt.Errorf("core: symbolic iteration: %w", err)
		}
		// Start time stamp: entrywise max over all consumed tokens
		// (line 7: fire a consuming tokens W ⊆ V).
		start := maxplus.NewVec(n)
		for _, id := range inCh[a] {
			c := g.Channel(id)
			q := queues[id]
			if len(q) < c.Cons {
				return nil, fmt.Errorf("core: symbolic iteration: schedule step %d: channel %s -> %s underflows",
					pos, g.Actor(c.Src).Name, g.Actor(c.Dst).Name)
			}
			for t := 0; t < c.Cons; t++ {
				start.MaxInto(q[t])
			}
			queues[id] = q[c.Cons:]
		}
		// End time stamp: ḡ_p = max{ḡ(t) | t ∈ W} + T(a) (line 9).
		end := start.AddScalar(maxplus.FromInt(g.Actor(a).Exec))
		completion.MaxInto(end)
		actorCompletion[a] = end
		// Produce output tokens carrying the end time stamp (line 10).
		// Produced vectors are immutable from here on, so all copies of
		// one firing's output may share the same backing array.
		for _, id := range outCh[a] {
			c := g.Channel(id)
			for t := 0; t < c.Prod; t++ {
				queues[id] = append(queues[id], end)
			}
		}
	}

	// The iteration has returned the graph to its initial token
	// distribution; read off the matrix columns token by token (line 12).
	m := maxplus.NewMatrix(n)
	idx = 0
	for i, c := range g.Channels() {
		if len(queues[i]) != c.Initial {
			return nil, fmt.Errorf("core: symbolic iteration: channel %s -> %s ends with %d tokens, want %d",
				g.Actor(c.Src).Name, g.Actor(c.Dst).Name, len(queues[i]), c.Initial)
		}
		for _, v := range queues[i] {
			for j, x := range v {
				m.Set(idx, j, x)
			}
			idx++
		}
	}
	return &SymbolicResult{
		Matrix:          m,
		TokenChannel:    tokenChannel,
		Schedule:        sched,
		Completion:      completion,
		ActorCompletion: actorCompletion,
	}, nil
}

// checkTimeHeadroom refuses graphs whose execution times are so large
// that exact max-plus analysis could overflow int64. Every iteration-
// matrix entry is a sum of at most one execution time per schedule
// slot, and a cycle of the matrix's precedence graph, whose weight the
// eigenvalue and power iteration accumulate, passes at most one entry
// per initial token; the worst-case magnitude is therefore bounded by
// firings × tokens × maxExec. That product must stay well below the
// −∞ sentinel (MinInt64) or the unchecked max-plus sums would wrap and
// return a silently wrong period.
func checkTimeHeadroom(g *sdf.Graph, firings int) error {
	var maxExec int64
	for _, a := range g.Actors() {
		if a.Exec > maxExec {
			maxExec = a.Exec
		}
	}
	if maxExec == 0 {
		return nil
	}
	const headroom = int64(1) << 61
	bound, ok := rat.MulChecked(maxExec, int64(firings))
	if ok {
		bound, ok = rat.MulChecked(bound, int64(g.TotalInitialTokens())+1)
	}
	if !ok || bound >= headroom {
		return fmt.Errorf("%w: worst-case time stamp firings*tokens*maxExec (%d*%d*%d) exceeds the exact int64 range",
			guard.ErrBudgetExceeded, firings, g.TotalInitialTokens(), maxExec)
	}
	return nil
}

// G returns the paper's coefficient g_{j,k}: the minimum distance that the
// production time of token k in an iteration must keep from the
// availability time of token j at the start of the iteration.
func (r *SymbolicResult) G(j, k int) maxplus.T {
	return r.Matrix.At(k, j)
}

// NumTokens returns the number of initial tokens N, the dimension of the
// iteration matrix.
func (r *SymbolicResult) NumTokens() int {
	return r.Matrix.Size()
}
