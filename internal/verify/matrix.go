package verify

import (
	"context"

	"repro/internal/guard"
	"repro/internal/maxplus"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// exhaustiveReplayLimit caps the work of the exhaustive column-replay
// cross-check: N columns at one schedule replay (Σq firings) each.
// Beyond it the checker still performs the single concrete iteration
// but reports the binding as partial through ExhaustiveFor.
const exhaustiveReplayLimit = 1 << 22

// MatrixCert certifies the max-plus iteration matrix of Algorithm 1
// against the graph itself, by concrete replay rather than by trusting
// the symbolic engine:
//
//  1. the carried schedule is certified as a minimal single iteration
//     (buffer-safe, marking-restoring);
//  2. one concrete iteration is replayed with every initial token
//     available at time 0 — the final token time stamps must equal the
//     row maxima of the claimed matrix (the simulated iteration the
//     certificate is cross-checked against);
//  3. when affordable, one further replay per initial token i starts
//     from B·e_i with B = 2·M0+1 (M0 the makespan of the zero replay):
//     because every true matrix entry lies in {−∞} ∪ [0, M0], the final
//     time of token k is At(k,i)+B exactly when token k depends on
//     token i and at most M0 otherwise, so the N replays recover every
//     column of the true matrix and pin the claimed one entry by entry.
//
// The replays use overflow-checked scalar max-plus arithmetic; the
// matrix is schedule-independent, so certifying it against the carried
// schedule certifies it for every schedule. A MatrixCert is for claims
// about the matrix itself (CertifyIterationMatrix); throughput and SADF
// claims need no matrix (see ThroughputCert and SADFCert).
type MatrixCert struct {
	// Matrix is the claimed iteration matrix in Apply convention
	// (Matrix.At(k, j) is the paper's g_{j,k}).
	Matrix *maxplus.Matrix
	// Schedule is the single-iteration schedule the replays execute.
	Schedule []sdf.ActorID
}

// Kind returns KindMatrix.
func (c *MatrixCert) Kind() Kind { return KindMatrix }

// ExhaustiveFor reports whether Check performs the exhaustive
// column-recovery binding on g, or only the single-iteration row-maxima
// cross-check (for graphs where N·Σq exceeds the replay work cap).
func (c *MatrixCert) ExhaustiveFor(g *sdf.Graph) bool {
	work, ok := rat.MulChecked(int64(g.TotalInitialTokens()), int64(len(c.Schedule)))
	return ok && work <= exhaustiveReplayLimit
}

// Check validates the matrix against g by concrete replay.
func (c *MatrixCert) Check(ctx context.Context, g *sdf.Graph) error {
	if c.Matrix == nil {
		return invalidf("matrix certificate carries no matrix")
	}
	n := g.TotalInitialTokens()
	if c.Matrix.Size() != n {
		return invalidf("matrix dimension %d, graph has %d initial tokens", c.Matrix.Size(), n)
	}
	if _, err := replayCounts(ctx, g, c.Schedule); err != nil {
		return err
	}
	r, err := newTokenReplay(g, c.Schedule, maxReplayLanes)
	if err != nil {
		return err
	}
	meter := guard.NewMeter(ctx, "verify")
	meter.Phase("token-replay")

	// One concrete simulated iteration from the zero vector: final token
	// times are the row maxima of the true matrix.
	if err := r.walk(meter, 1, zeroStart); err != nil {
		return err
	}
	m0 := int64(0)
	for k := 0; k < n; k++ {
		rowMax := maxplus.NegInf
		for j := 0; j < n; j++ {
			rowMax = rowMax.Max(c.Matrix.At(k, j))
		}
		final := r.final(k, 0)
		if rowMax.Cmp(final) != 0 {
			return invalidf("row %d: claimed maximum %v, concrete iteration produced %v", k, rowMax, final)
		}
		if !final.IsNegInf() && final.Int() > m0 {
			m0 = final.Int()
		}
	}
	// Cheap entry sanity: true entries lie in {−∞} ∪ [0, M0].
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			if e := c.Matrix.At(k, j); !e.IsNegInf() && (e.Int() < 0 || e.Int() > m0) {
				return invalidf("entry (%d,%d) = %v outside the feasible range [0, %d]", k, j, e, m0)
			}
		}
	}

	if !c.ExhaustiveFor(g) {
		return nil
	}
	// Exhaustive binding: recover each column by a shifted replay, up to
	// r.lanes columns per schedule walk.
	b, ok := rat.MulChecked(m0, 2)
	if ok {
		b, ok = rat.AddChecked(b, 1)
	}
	if !ok {
		return invalidf("column-recovery shift 2·%d+1 overflows int64", m0)
	}
	for first := 0; first < n; first += r.lanes {
		lanes := min(r.lanes, n-first)
		// Lane l starts token first+l at b, every other token at 0.
		shifted := func(k, l int) maxplus.T {
			if k == first+l {
				return maxplus.FromInt(b)
			}
			return 0
		}
		if err := r.walk(meter, lanes, shifted); err != nil {
			return err
		}
		for l := 0; l < lanes; l++ {
			i := first + l
			for k := 0; k < n; k++ {
				got, final := maxplus.NegInf, r.final(k, l)
				if !final.IsNegInf() && final.Int() >= b {
					got = maxplus.FromInt(final.Int() - b)
				}
				if want := c.Matrix.At(k, i); got.Cmp(want) != 0 {
					return invalidf("entry (%d,%d): claimed %v, column replay recovered %v", k, i, want, got)
				}
			}
		}
	}
	return nil
}

// maxReplayLanes is how many column-recovery replays one schedule walk
// runs in lockstep.
const maxReplayLanes = 64

// laneSlotCap bounds the lane buffer (ring slots × lanes): a graph with
// deep FIFOs gets fewer lanes per walk instead of an unbounded buffer.
const laneSlotCap = 1 << 20

// tokenReplay executes concrete iterations of one certified schedule
// without allocating per firing. Everything that does not depend on the
// token time stamps is computed once, in newTokenReplay: channel
// adjacency, each channel's peak occupancy over the schedule (its ring
// length), the token counts — and with them the underflow and final
// marking checks, which hold for every lane at once. A walk then runs up
// to lanes independent replays in lockstep: a ring slot holds one time
// stamp per lane, and lane l is exactly the replay from its own start
// vector, with every addition overflow-checked per lane.
type tokenReplay struct {
	sched   []sdf.ActorID
	in, out [][]sdf.ChannelID
	cons    []int   // per channel
	prod    []int   // per channel
	initial []int   // per channel
	exec    []int64 // per actor
	base    []int   // first ring slot of each channel
	size    []int   // ring length of each channel: its peak occupancy, at least 1
	head    []int   // ring index of each channel's front token
	count   []int   // tokens each channel holds
	tokSlot []int   // ring slot of each token (global channel-order numbering) after a walk
	lanes   int     // lanes per walk
	buf     []maxplus.T
	at, end []maxplus.T // per-firing scratch, one entry per lane
}

// newTokenReplay prepares the replays of sched on g, up to maxLanes per
// walk. The schedule must already be certified by replayCounts; token
// underflow and an unrestored marking are still rejected defensively.
func newTokenReplay(g *sdf.Graph, sched []sdf.ActorID, maxLanes int) (*tokenReplay, error) {
	nc, na := g.NumChannels(), g.NumActors()
	r := &tokenReplay{
		sched: sched,
		in:    make([][]sdf.ChannelID, na), out: make([][]sdf.ChannelID, na),
		cons: make([]int, nc), prod: make([]int, nc), initial: make([]int, nc),
		exec: make([]int64, na),
		base: make([]int, nc), size: make([]int, nc), head: make([]int, nc), count: make([]int, nc),
	}
	for a := range r.exec {
		r.exec[a] = g.Actor(sdf.ActorID(a)).Exec
	}
	for i, ch := range g.Channels() {
		id := sdf.ChannelID(i)
		r.in[ch.Dst] = append(r.in[ch.Dst], id)
		r.out[ch.Src] = append(r.out[ch.Src], id)
		r.cons[i], r.prod[i], r.initial[i] = ch.Cons, ch.Prod, ch.Initial
		r.count[i], r.size[i] = ch.Initial, max(ch.Initial, 1)
	}
	// Token counts do not depend on the time stamps: one count walk
	// sizes every ring and checks every lane of every later walk.
	for pos, a := range sched {
		if a < 0 || int(a) >= na {
			return nil, invalidf("token replay step %d fires unknown actor %d", pos, a)
		}
		for _, id := range r.in[a] {
			if r.count[id] < r.cons[id] {
				ch := g.Channel(id)
				return nil, invalidf("token replay step %d underflows channel %s -> %s",
					pos, g.Actor(ch.Src).Name, g.Actor(ch.Dst).Name)
			}
			r.count[id] -= r.cons[id]
		}
		for _, id := range r.out[a] {
			r.count[id] += r.prod[id]
			r.size[id] = max(r.size[id], r.count[id])
		}
	}
	slots := 0
	for i, ch := range g.Channels() {
		if r.count[i] != ch.Initial {
			return nil, invalidf("channel %s -> %s ends the replay with %d tokens, want %d",
				g.Actor(ch.Src).Name, g.Actor(ch.Dst).Name, r.count[i], ch.Initial)
		}
		r.base[i] = slots
		slots += r.size[i]
	}
	r.lanes = max(1, min(maxLanes, g.TotalInitialTokens(), laneSlotCap/max(slots, 1)))
	r.buf = make([]maxplus.T, slots*r.lanes)
	r.at, r.end = make([]maxplus.T, r.lanes), make([]maxplus.T, r.lanes)
	r.tokSlot = make([]int, g.TotalInitialTokens())
	return r, nil
}

// zeroStart starts every token of every lane at time 0.
func zeroStart(int, int) maxplus.T { return 0 }

// scale multiplies every execution time by den, so that later walks run
// in units of 1/den.
func (r *tokenReplay) scale(den int64) error {
	for a, e := range r.exec {
		v, ok := rat.MulChecked(e, den)
		if !ok {
			return invalidf("execution time %d scaled by %d overflows int64", e, den)
		}
		r.exec[a] = v
	}
	return nil
}

// walk replays one iteration in lanes lockstep lanes (lanes ≤ r.lanes):
// lane l starts initial token k (global channel-order numbering) at
// start(k, l). One meter tick per lane per firing keeps the
// cancellation cadence of separate replays.
func (r *tokenReplay) walk(meter *guard.Meter, lanes int, start func(k, l int) maxplus.T) error {
	buf := r.buf[:len(r.buf)/r.lanes*lanes]
	tok := 0
	for c, init := range r.initial {
		r.head[c], r.count[c] = 0, init
		for t := 0; t < init; t++ {
			lane := buf[(r.base[c]+t)*lanes:][:lanes]
			for l := range lane {
				lane[l] = start(tok, l)
			}
			tok++
		}
	}
	at, end := r.at[:lanes], r.end[:lanes]
	for pos, a := range r.sched {
		if err := meter.Tick(int64(lanes)); err != nil {
			return err
		}
		for l := range at {
			at[l] = maxplus.NegInf
		}
		for _, id := range r.in[a] {
			h, size := r.head[id], r.size[id]
			for t := 0; t < r.cons[id]; t++ {
				lane := buf[(r.base[id]+h)*lanes:][:lanes]
				for l, v := range lane {
					at[l] = at[l].Max(v)
				}
				if h++; h == size {
					h = 0
				}
			}
			r.head[id] = h
			r.count[id] -= r.cons[id]
		}
		for l, v := range at {
			end[l] = maxplus.NegInf
			if !v.IsNegInf() {
				sum, ok := rat.AddChecked(v.Int(), r.exec[a])
				if !ok {
					return invalidf("token replay step %d overflows a time stamp", pos)
				}
				end[l] = maxplus.FromInt(sum)
			}
		}
		for _, id := range r.out[a] {
			size := r.size[id]
			for t := 0; t < r.prod[id]; t++ {
				slot := r.base[id] + (r.head[id]+r.count[id])%size
				copy(buf[slot*lanes:][:lanes], end)
				r.count[id]++
			}
		}
	}
	tok = 0
	for c, init := range r.initial {
		for t := 0; t < init; t++ {
			r.tokSlot[tok] = (r.base[c] + (r.head[c]+t)%r.size[c]) * lanes
			tok++
		}
	}
	return nil
}

// final is the time stamp of token k (global channel-order numbering)
// in lane l after the last walk.
func (r *tokenReplay) final(k, l int) maxplus.T { return r.buf[r.tokSlot[k]+l] }
