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
	"math/bits"
	"slices"

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
	it, err := newSlabIteration(g, sched)
	if err != nil {
		return nil, fmt.Errorf("core: symbolic iteration: %w", err)
	}
	for _, a := range sched {
		if err := meter.Firings(1); err != nil {
			return nil, fmt.Errorf("core: symbolic iteration: %w", err)
		}
		it.fire(a)
	}
	return it.result(sched), nil
}

// slabChunkBytes bounds one chunk of the slab once a graph's live time
// stamps outgrow a single chunk.
const slabChunkBytes = 1 << 18

// slabIteration is the working state of one symbolic iteration. Every
// time stamp vector (N entries, one per initial token) lives in a slot
// of one slab: the N initial unit vectors first, then one slot per
// firing for its end stamp, shared by all the tokens it produces. A
// slot counts its holders (queued tokens, plus the actor whose latest
// firing it is) and goes back on the free list when the last one lets
// go, so the slab holds only the live stamps. It grows by whole chunks
// of 2^shift slots that never move, not per firing. Channel queues are
// rings of slot indices, each as long as its channel's peak occupancy
// over the schedule.
type slabIteration struct {
	g       *sdf.Graph
	ch      []sdf.Channel
	n       int
	in, out [][]sdf.ChannelID
	base    []int // first ring index of each channel
	size    []int // ring length of each channel
	head    []int // ring index of each channel's front token
	count   []int // tokens each channel holds
	kept    []int // initial tokens each channel still holds when the iteration ends
	ring    []int // slot of every queued token
	chunks  [][]maxplus.T
	shift   uint
	holders []int // per slot
	free    []int // stack of free slots
	last    []int // per actor: slot of its latest end stamp, −1 before it fires
	start   maxplus.Vec
	// sinkEnd is the entrywise maximum of the end stamps of firings that
	// produce no token. Every other end stamp is consumed by a later
	// firing, whose end is entrywise at least as late (execution times
	// are non-negative), or is still queued when the iteration ends, so
	// the completion vector is sinkEnd joined with the final tokens that
	// firings produced.
	sinkEnd maxplus.Vec
}

// newSlabIteration numbers the initial tokens into the first N slots
// and sizes every ring by one count pass over sched, which also rejects
// a schedule that underflows a channel or does not restore the marking.
func newSlabIteration(g *sdf.Graph, sched []sdf.ActorID) (*slabIteration, error) {
	n, nc, na := g.TotalInitialTokens(), g.NumChannels(), g.NumActors()
	it := &slabIteration{
		g: g, ch: g.Channels(), n: n,
		in: make([][]sdf.ChannelID, na), out: make([][]sdf.ChannelID, na),
		base: make([]int, nc), size: make([]int, nc), head: make([]int, nc), count: make([]int, nc),
		kept:    make([]int, nc),
		last:    make([]int, na),
		start:   make(maxplus.Vec, n),
		sinkEnd: maxplus.NewVec(n),
	}
	for i, c := range g.Channels() {
		id := sdf.ChannelID(i)
		it.in[c.Dst] = append(it.in[c.Dst], id)
		it.out[c.Src] = append(it.out[c.Src], id)
		it.count[i], it.size[i], it.kept[i] = c.Initial, max(c.Initial, 1), c.Initial
	}
	for pos, a := range sched {
		for _, id := range it.in[a] {
			c := g.Channel(id)
			if it.count[id] < c.Cons {
				return nil, fmt.Errorf("schedule step %d: channel %s -> %s underflows",
					pos, g.Actor(c.Src).Name, g.Actor(c.Dst).Name)
			}
			it.count[id] -= c.Cons
			it.kept[id] = max(it.kept[id]-c.Cons, 0)
		}
		for _, id := range it.out[a] {
			it.count[id] += g.Channel(id).Prod
			it.size[id] = max(it.size[id], it.count[id])
		}
	}
	slots := 0
	for i, c := range g.Channels() {
		if it.count[i] != c.Initial {
			return nil, fmt.Errorf("channel %s -> %s ends with %d tokens, want %d",
				g.Actor(c.Src).Name, g.Actor(c.Dst).Name, it.count[i], c.Initial)
		}
		it.base[i] = slots
		slots += it.size[i]
	}
	it.ring = make([]int, slots)
	// Each live slot has a holder, so the queued tokens and one hold per
	// actor bound the slots ever live: a graph whose bound fits one chunk
	// gets exactly one.
	perChunk := max(1, slabChunkBytes/(8*max(n, 1)))
	it.shift = uint(bits.Len(uint(min(slots+na, perChunk))))
	if 1<<it.shift > perChunk {
		it.shift--
	}
	// Initial token k holds slot k, the unit vector e_k.
	k := 0
	for i, c := range g.Channels() {
		for t := 0; t < c.Initial; t++ {
			s := it.alloc()
			v := it.vec(s)
			for j := range v {
				v[j] = maxplus.NegInf
			}
			v[k] = 0
			it.holders[s] = 1
			it.ring[it.base[i]+t] = s
			k++
		}
	}
	for a := range it.last {
		it.last[a] = -1
	}
	return it, nil
}

// vec is slot s of the slab.
func (it *slabIteration) vec(s int) maxplus.Vec {
	c := it.chunks[s>>it.shift]
	o := (s & (1<<it.shift - 1)) * it.n
	return maxplus.Vec(c[o : o+it.n : o+it.n])
}

// alloc pops a free slot, adding a chunk when none is left. Free slots
// come off the stack lowest first.
func (it *slabIteration) alloc() int {
	if len(it.free) == 0 {
		per := 1 << it.shift
		first := len(it.chunks) * per
		it.chunks = append(it.chunks, make([]maxplus.T, per*it.n))
		it.holders = slices.Grow(it.holders, per)[:first+per]
		for s := first + per - 1; s >= first; s-- {
			it.free = append(it.free, s)
		}
	}
	k := len(it.free) - 1
	s := it.free[k]
	it.free = it.free[:k]
	return s
}

// release drops one holder of slot s.
func (it *slabIteration) release(s int) {
	if it.holders[s]--; it.holders[s] == 0 {
		it.free = append(it.free, s)
	}
}

// fire executes one firing of actor a (Algorithm 1, lines 7–10).
func (it *slabIteration) fire(a sdf.ActorID) {
	// Start time stamp: entrywise max over all consumed tokens
	// (line 7: fire a consuming tokens W ⊆ V).
	start := it.start
	for j := range start {
		start[j] = maxplus.NegInf
	}
	for _, id := range it.in[a] {
		h, size, cons := it.head[id], it.size[id], it.ch[id].Cons
		for t := cons; t > 0; t-- {
			s := it.ring[it.base[id]+h]
			start.MaxInto(it.vec(s))
			it.release(s)
			if h++; h == size {
				h = 0
			}
		}
		it.head[id] = h
		it.count[id] -= cons
	}
	// End time stamp: ḡ_p = max{ḡ(t) | t ∈ W} + T(a) (line 9), written
	// once into the slot every produced token shares (line 10).
	s := it.alloc()
	end, exec := it.vec(s), it.g.Actors()[a].Exec
	for j, x := range start {
		if !x.IsNegInf() {
			x += maxplus.T(exec)
		}
		end[j] = x
	}
	holders := 1 // the actor's own hold: its latest end stamp
	for _, id := range it.out[a] {
		size, prod := it.size[id], it.ch[id].Prod
		tail := (it.head[id] + it.count[id]) % size
		for t := prod; t > 0; t-- {
			it.ring[it.base[id]+tail] = s
			if tail++; tail == size {
				tail = 0
			}
		}
		it.count[id] += prod
		holders += prod
	}
	if holders == 1 {
		it.sinkEnd.MaxInto(end)
	}
	it.holders[s] = holders
	if prev := it.last[a]; prev >= 0 {
		it.release(prev)
	}
	it.last[a] = s
}

// result reads the matrix off the final token distribution, token by
// token (line 12), and copies out the completion vectors.
func (it *slabIteration) result(sched []sdf.ActorID) *SymbolicResult {
	n := it.n
	m := maxplus.NewMatrix(n)
	completion := it.sinkEnd
	tokenChannel := make([]sdf.ChannelID, 0, n)
	idx := 0
	for i, c := range it.ch {
		for t := 0; t < c.Initial; t++ {
			v := it.vec(it.ring[it.base[i]+(it.head[i]+t)%it.size[i]])
			for j, x := range v {
				m.Set(idx, j, x)
			}
			if t >= it.kept[i] {
				completion.MaxInto(v)
			}
			tokenChannel = append(tokenChannel, sdf.ChannelID(i))
			idx++
		}
	}
	actorCompletion := make([]maxplus.Vec, len(it.last))
	backing := make([]maxplus.T, len(it.last)*n)
	for a, s := range it.last {
		if s >= 0 {
			actorCompletion[a] = maxplus.Vec(backing[a*n : (a+1)*n : (a+1)*n])
			copy(actorCompletion[a], it.vec(s))
		}
	}
	return &SymbolicResult{
		Matrix:          m,
		TokenChannel:    tokenChannel,
		Schedule:        sched,
		Completion:      completion,
		ActorCompletion: actorCompletion,
	}
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
