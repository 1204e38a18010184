// Package transform implements the classical SDF graph transformations the
// paper builds on and compares against: the traditional SDF→HSDF
// conversion of Lee/Messerschmitt and Sriram/Bhattacharyya, whose result
// has exactly one actor per firing in an iteration, and buffer-capacity
// modelling through reverse channels.
package transform

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/guard"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// TraditionalStats summarises the size of a traditional conversion result.
type TraditionalStats struct {
	Actors int // sum of the repetition vector
	Edges  int
	Tokens int
}

// Traditional converts a consistent SDF graph into the equivalent HSDF
// graph of the classical construction: actor a becomes q(a) copies
// a_0 … a_{q(a)−1}, one per firing in an iteration, and every token
// consumption becomes a dependency channel from the firing that produces
// the token (possibly in an earlier iteration, encoded as initial tokens
// on the channel). Only data dependencies are translated, so the HSDF
// preserves the auto-concurrent self-timed semantics of the SDF graph —
// firings of one actor may overlap unless the source graph forbids it
// with a self-loop, exactly as the paper assumes (§4.1).
//
// Parallel channels between the same pair of copies are pruned to the one
// with the fewest initial tokens; this does not change the timing.
func Traditional(g *sdf.Graph) (*sdf.Graph, TraditionalStats, error) {
	return TraditionalCtx(guard.WithBudget(context.Background(), guard.Unlimited()), g)
}

// TraditionalCtx is Traditional under the resilience runtime. The actor
// count of the result is Σq — the iteration length the paper warns can
// be exponential in the graph description — so the estimate is checked
// against the actor budget carried by ctx before anything is allocated,
// and both construction loops checkpoint the context. All token-position
// arithmetic is overflow-checked: adversarial rates produce an error
// instead of silently wrapped channel structure.
func TraditionalCtx(ctx context.Context, g *sdf.Graph) (*sdf.Graph, TraditionalStats, error) {
	c, stats, err := Convert(ctx, g)
	if err != nil {
		return nil, TraditionalStats{}, err
	}
	return c.HSDF, stats, nil
}

// Conversion is a traditional conversion together with the provenance
// of its nodes and channels, which the HSDF engine's throughput
// certificate maps its witnesses back through.
type Conversion struct {
	// HSDF is the converted graph.
	HSDF *sdf.Graph
	// Copies[a][i] is the node of firing i of actor a in one iteration.
	Copies [][]sdf.ActorID
	// Origins[e] is the dependency of g that channel e of HSDF keeps.
	Origins []Origin
}

// Origin is the dependency of g one channel of a conversion keeps: the
// token of Channel that the destination copy consumes at FIFO position
// Pos, counted from the channel's front at the start of that firing's
// iteration. A channel with d initial tokens keeps a token produced d
// iterations earlier: it crosses d iteration boundaries, at positions
// Pos, Pos + q(dst)·cons, …, all below the channel's initial tokens.
type Origin struct {
	Channel sdf.ChannelID
	Pos     int
}

// Convert is TraditionalCtx returning the conversion's provenance too.
func Convert(ctx context.Context, g *sdf.Graph) (*Conversion, TraditionalStats, error) {
	fail := func(err error) (*Conversion, TraditionalStats, error) {
		return nil, TraditionalStats{}, fmt.Errorf("transform: traditional conversion: %w", err)
	}
	q, err := g.RepetitionVector()
	if err != nil {
		return fail(err)
	}

	meter := guard.NewMeter(ctx, "traditional")
	meter.Phase("precheck")
	iterLen := int64(0)
	for _, v := range q {
		s, ok := rat.AddChecked(iterLen, v)
		if !ok {
			iterLen = -1
			break
		}
		iterLen = s
	}
	if err := meter.NeedActors(iterLen); err != nil {
		return fail(err)
	}

	meter.Phase("actors")
	h := sdf.NewGraph(g.Name() + "_hsdf_traditional")
	copies := make([][]sdf.ActorID, g.NumActors())
	for a := 0; a < g.NumActors(); a++ {
		src := g.Actor(sdf.ActorID(a))
		copyCap, err := meter.Alloc(q[a])
		if err != nil {
			return fail(err)
		}
		copies[a] = make([]sdf.ActorID, 0, copyCap)
		for i := int64(0); i < q[a]; i++ {
			if err := meter.Firings(1); err != nil {
				return fail(err)
			}
			name := src.Name
			if q[a] > 1 {
				name = fmt.Sprintf("%s_%d", src.Name, i)
			}
			id, err := h.AddActor(name, src.Exec)
			if err != nil {
				return fail(err)
			}
			copies[a] = append(copies[a], id)
		}
	}

	meter.Phase("channels")
	// best[{src,dst}] = the dependency with the fewest initial tokens
	// among parallel channels.
	type pair struct{ src, dst sdf.ActorID }
	type kept struct {
		tokens int
		origin Origin
	}
	best := make(map[pair]kept)
	note := func(src, dst sdf.ActorID, tokens int, origin Origin) {
		key := pair{src, dst}
		if cur, ok := best[key]; !ok || tokens < cur.tokens {
			best[key] = kept{tokens, origin}
		}
	}

	for id, c := range g.Channels() {
		for k := int64(0); k < q[c.Dst]; k++ {
			// Position, counted from the start of iteration 0, of the
			// first token consumed by firing k of the destination:
			// k·cons − initial. Negative positions are initial tokens.
			base, ok := rat.MulChecked(k, int64(c.Cons))
			if !ok {
				return fail(fmt.Errorf("token position k·cons overflows int64 on channel %s -> %s",
					g.Actor(c.Src).Name, g.Actor(c.Dst).Name))
			}
			base, ok = rat.AddChecked(base, -int64(c.Initial))
			if !ok {
				return fail(fmt.Errorf("token position overflows int64 on channel %s -> %s",
					g.Actor(c.Src).Name, g.Actor(c.Dst).Name))
			}
			for i := 0; i < c.Cons; i++ {
				if err := meter.Tick(1); err != nil {
					return fail(err)
				}
				// Position of the i-th token consumed by firing k.
				t, ok := rat.AddChecked(base, int64(i))
				if !ok {
					return fail(fmt.Errorf("token position overflows int64 on channel %s -> %s",
						g.Actor(c.Src).Name, g.Actor(c.Dst).Name))
				}
				// Producing firing m of c.Src fills positions
				// m*Prod … m*Prod+Prod−1; a negative m is a firing of an
				// earlier iteration and becomes initial tokens on the
				// HSDF channel.
				m := rat.FloorDiv(t, int64(c.Prod))
				srcCopy := copies[c.Src][rat.Mod(m, q[c.Src])]
				iter := rat.FloorDiv(m, q[c.Src]) // <= 0 for earlier iterations
				note(srcCopy, copies[c.Dst][k], int(-iter), Origin{sdf.ChannelID(id), int(t) + c.Initial})
			}
		}
	}

	stats := TraditionalStats{}
	for _, cs := range copies {
		stats.Actors += len(cs)
	}
	// Deterministic channel order: sort the dependency pairs.
	pairs := make([]pair, 0, len(best))
	for k := range best {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].src != pairs[j].src {
			return pairs[i].src < pairs[j].src
		}
		return pairs[i].dst < pairs[j].dst
	})
	origins := make([]Origin, 0, len(pairs))
	for _, k := range pairs {
		e := best[k]
		if _, err := h.AddChannel(k.src, k.dst, 1, 1, e.tokens); err != nil {
			return fail(err)
		}
		origins = append(origins, e.origin)
		stats.Edges++
		stats.Tokens += e.tokens
	}
	return &Conversion{HSDF: h, Copies: copies, Origins: origins}, stats, nil
}
