package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/maxplus"
	"repro/internal/schedule"
	"repro/internal/sdf"
)

// refSymbolicIteration is Algorithm 1 as it stood before the slab
// rewrite, kept verbatim as the reference of TestSymbolicMatchesReference:
// two fresh N-vectors per firing (start and end stamp) and
// append-grown per-channel queues of vectors.
func refSymbolicIteration(ctx context.Context, g *sdf.Graph) (*SymbolicResult, error) {
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

// symbolicRefGraphs is the input set of TestSymbolicMatchesReference:
// seeded random multirate and regular graphs, the five reducible
// families over a range of sizes, and every Table-1 graph.
func symbolicRefGraphs(t *testing.T) []*sdf.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(2026))
	var out []*sdf.Graph
	for i := 0; i < 1200; i++ {
		g, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 1 + rng.Intn(8), MaxRep: 1 + rng.Int63n(6), MaxExec: 9,
			Chords: rng.Intn(5), SelfLoop: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	for i := 0; i < 700; i++ {
		g, err := gen.RandomRegularMultirate(rng, gen.RegularOptions{
			Groups: 1 + rng.Intn(3), Copies: 2 + rng.Intn(4), Links: rng.Intn(5), MaxExec: 7,
		}, 1+rng.Int63n(4))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	for i := 0; i < 30; i++ {
		out = append(out,
			benchmarks.FusibleRing(2+rng.Intn(40)),
			benchmarks.DeadPeriphery(1+rng.Intn(4)),
			benchmarks.GCDTokenCycle(2+rng.Intn(8), 1+rng.Intn(5), 1+rng.Intn(5)),
			benchmarks.WideRedundant(2+rng.Intn(20)),
			benchmarks.RingWithDeadTail(2+rng.Intn(30), 1+rng.Intn(4)),
		)
	}
	for _, c := range benchmarks.All() {
		out = append(out, c.Graph())
	}
	return out
}

// TestSymbolicMatchesReference pins the slab iteration to the
// vector-per-firing reference: on every input graph both produce the
// same matrix, completion vectors, schedule and token numbering.
func TestSymbolicMatchesReference(t *testing.T) {
	ctx := guard.WithBudget(context.Background(), guard.Unlimited())
	graphs := symbolicRefGraphs(t)
	if len(graphs) < 2000 {
		t.Fatalf("only %d graphs", len(graphs))
	}
	for i, g := range graphs {
		got, gotErr := SymbolicIterationCtx(ctx, g)
		want, wantErr := refSymbolicIteration(ctx, g)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("graph %d (%s): err = %v, reference %v", i, g.Name(), gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if !got.Matrix.Equal(want.Matrix) {
			t.Fatalf("graph %d (%s): matrix\n%v\nreference\n%v", i, g.Name(), got.Matrix, want.Matrix)
		}
		if !got.Completion.Equal(want.Completion) {
			t.Fatalf("graph %d (%s): completion %v, reference %v", i, g.Name(), got.Completion, want.Completion)
		}
		if len(got.ActorCompletion) != len(want.ActorCompletion) {
			t.Fatalf("graph %d (%s): %d actor completions, reference %d", i, g.Name(), len(got.ActorCompletion), len(want.ActorCompletion))
		}
		for a := range want.ActorCompletion {
			if !got.ActorCompletion[a].Equal(want.ActorCompletion[a]) {
				t.Fatalf("graph %d (%s): actor %d completion %v, reference %v", i, g.Name(), a, got.ActorCompletion[a], want.ActorCompletion[a])
			}
		}
		if !slices.Equal(got.Schedule, want.Schedule) || !slices.Equal(got.TokenChannel, want.TokenChannel) {
			t.Fatalf("graph %d (%s): schedule %v / tokens %v, reference %v / %v", i, g.Name(),
				got.Schedule, got.TokenChannel, want.Schedule, want.TokenChannel)
		}
	}
}

// TestSymbolicAllocsPerIteration keeps one symbolic iteration's
// allocations on each Table-1 graph below a bound linear in actors and
// channels: a per-firing allocation (the Σq term) fails it.
func TestSymbolicAllocsPerIteration(t *testing.T) {
	for _, c := range benchmarks.All() {
		g := c.Graph()
		allocs := int(testing.AllocsPerRun(5, func() {
			if _, err := SymbolicIteration(g); err != nil {
				t.Fatal(err)
			}
		}))
		if bound := 5*(g.NumActors()+g.NumChannels()) + 64; allocs > bound {
			t.Errorf("%s: %d allocations per iteration, want at most %d (%d actors, %d channels)",
				c.Name, allocs, bound, g.NumActors(), g.NumChannels())
		}
	}
}
