package verify

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// Names of the reduction rules whose rewrites a LiftStep can certify.
// internal/passes registers its rules under these names so a step
// recorded by the fixpoint driver dispatches to the matching structural
// checker here.
const (
	RulePruneRedundant = "prune-redundant"
	RuleRateGCD        = "rate-gcd"
	RuleDeadActor      = "dead-actor"
	RuleChainFusion    = "chain-fusion"
	RuleAbstraction    = "abstraction"
)

// LiftStep is the checkable witness for one reduction rewrite: it
// records the graph the rule produced together with enough structure —
// the actor back-map, the repetition vectors on both sides and the
// iteration scale relating them — for an independent checker to confirm
// that the rewrite is an instance of the named rule, and hence that an
// iteration period of the reduced graph lifts to Scale times itself on
// the graph the step was applied to.
//
// The exact rules preserve the period up to the recorded scale; the
// abstraction rule only bounds it (Theorem 1), which ReductionCert
// tracks via its Bound flag.
type LiftStep struct {
	// Rule names the reduction rule, one of the Rule* constants.
	Rule string
	// Reduced is the graph the rewrite produced.
	Reduced *sdf.Graph
	// Scale relates iterations: one iteration of the pre-step graph
	// contains Scale iterations of Reduced, so periods lift as
	// Λ_before = Scale·Λ_reduced (exact rules) or
	// Λ_before ≤ Scale·Λ_reduced (abstraction).
	Scale int64
	// ActorMap maps each pre-step actor to its reduced actor, -1 if the
	// rewrite removed it.
	ActorMap []sdf.ActorID
	// QBefore and QAfter are the minimal repetition vectors of the
	// pre-step and reduced graphs (unused by the abstraction rule, which
	// operates on homogeneous graphs and carries Alpha/Index instead).
	QBefore []int64
	QAfter  []int64
	// Alpha and Index record the Definition 3 abstraction for
	// RuleAbstraction steps; nil otherwise.
	Alpha []string
	Index []int
	// Chains lists, for RuleChainFusion steps, the pre-step actors fused
	// into each reduced actor, in chain order; nil otherwise.
	Chains [][]sdf.ActorID
}

// Check verifies that the step is a sound instance of its rule applied
// to before. A nil return proves the structural side conditions of the
// rule, so the period relation recorded by Scale holds.
func (s *LiftStep) Check(ctx context.Context, before *sdf.Graph) error {
	if s.Reduced == nil {
		return invalidf("lift step %q carries no reduced graph", s.Rule)
	}
	if len(s.ActorMap) != before.NumActors() {
		return invalidf("lift step %q maps %d of %d actors", s.Rule, len(s.ActorMap), before.NumActors())
	}
	for a, m := range s.ActorMap {
		if m != -1 && (m < 0 || int(m) >= s.Reduced.NumActors()) {
			return invalidf("lift step %q maps actor %s to out-of-range actor %d",
				s.Rule, before.Actor(sdf.ActorID(a)).Name, m)
		}
	}
	switch s.Rule {
	case RulePruneRedundant:
		return s.checkPrune(before)
	case RuleRateGCD:
		return s.checkRateGCD(before)
	case RuleDeadActor:
		return s.checkDeadActor(before)
	case RuleChainFusion:
		return s.checkChainFusion(before)
	case RuleAbstraction:
		return s.checkAbstraction(ctx, before)
	default:
		return invalidf("lift step names unknown rule %q", s.Rule)
	}
}

// checkScale verifies the iteration-scale relation common to the exact
// rules: both repetition vectors are minimal for their graphs and every
// kept actor satisfies QBefore[a] = Scale·QAfter[map[a]].
func (s *LiftStep) checkScale(before *sdf.Graph) error {
	if s.Scale < 1 {
		return invalidf("lift step %q has scale %d, want >= 1", s.Rule, s.Scale)
	}
	if err := checkRepetition(before, s.QBefore); err != nil {
		return fmt.Errorf("lift step %q pre-step repetition vector: %w", s.Rule, err)
	}
	if err := checkRepetition(s.Reduced, s.QAfter); err != nil {
		return fmt.Errorf("lift step %q reduced repetition vector: %w", s.Rule, err)
	}
	for a, m := range s.ActorMap {
		if m == -1 {
			continue
		}
		want, ok := rat.MulChecked(s.Scale, s.QAfter[m])
		if !ok {
			return invalidf("lift step %q scale check overflows int64", s.Rule)
		}
		if s.QBefore[a] != want {
			return invalidf("lift step %q: actor %s repeats %d times, want scale %d x %d",
				s.Rule, before.Actor(sdf.ActorID(a)).Name, s.QBefore[a], s.Scale, s.QAfter[m])
		}
	}
	return nil
}

// checkIdentityActors verifies that the step keeps every actor in place
// with the same name and execution time.
func (s *LiftStep) checkIdentityActors(before *sdf.Graph) error {
	if s.Reduced.NumActors() != before.NumActors() {
		return invalidf("lift step %q changes actor count %d -> %d",
			s.Rule, before.NumActors(), s.Reduced.NumActors())
	}
	for a := 0; a < before.NumActors(); a++ {
		if s.ActorMap[a] != sdf.ActorID(a) {
			return invalidf("lift step %q moves actor %s", s.Rule, before.Actor(sdf.ActorID(a)).Name)
		}
		b, r := before.Actor(sdf.ActorID(a)), s.Reduced.Actor(sdf.ActorID(a))
		if b.Name != r.Name || b.Exec != r.Exec {
			return invalidf("lift step %q alters actor %s", s.Rule, b.Name)
		}
	}
	return nil
}

// chanKey identifies a channel by endpoints, rates and initial tokens.
// Graph.Validate rejects exact duplicates, so within one graph the key
// is unique; multisets only arise after mapping through a fusion.
type chanKey struct {
	src, dst            sdf.ActorID
	prod, cons, initial int
}

func keyOf(c sdf.Channel) chanKey {
	return chanKey{c.Src, c.Dst, c.Prod, c.Cons, c.Initial}
}

func channelSet(g *sdf.Graph) map[chanKey]int {
	set := make(map[chanKey]int, g.NumChannels())
	for _, c := range g.Channels() {
		set[keyOf(c)]++
	}
	return set
}

// checkPrune verifies a §4.2 redundant-channel pruning: actors are
// untouched, every surviving channel existed before, and every removed
// channel is dominated by a surviving channel with the same endpoints
// and rates but no more initial tokens, so the removed precedence
// constraint was implied and the rewrite is exact.
func (s *LiftStep) checkPrune(before *sdf.Graph) error {
	if s.Scale != 1 {
		return invalidf("prune-redundant step has scale %d, want 1", s.Scale)
	}
	if err := s.checkIdentityActors(before); err != nil {
		return err
	}
	kept := channelSet(s.Reduced)
	for _, n := range kept {
		if n > 1 {
			return invalidf("prune-redundant step duplicates a channel")
		}
	}
	orig := channelSet(before)
	for k := range kept {
		if orig[k] == 0 {
			return invalidf("prune-redundant step invents channel %s -> %s",
				before.Actor(k.src).Name, before.Actor(k.dst).Name)
		}
	}
	for _, c := range before.Channels() {
		if kept[keyOf(c)] > 0 {
			continue
		}
		// Removed: require a surviving dominating channel.
		dominated := false
		for _, r := range s.Reduced.Channels() {
			if r.Src == c.Src && r.Dst == c.Dst && r.Prod == c.Prod && r.Cons == c.Cons && r.Initial <= c.Initial {
				dominated = true
				break
			}
		}
		if !dominated {
			return invalidf("prune-redundant step drops non-redundant channel %s -> %s",
				before.Actor(c.Src).Name, before.Actor(c.Dst).Name)
		}
	}
	return s.checkScale(before)
}

// checkRateGCD verifies a rate normalisation: channels stay in place
// and each reduced channel's (prod, cons, initial) triple is the
// pre-step triple divided by a common positive factor. The SDF
// precedence constraint ⌈(cons·k − initial)/prod⌉ is invariant under
// dividing all three by a common divisor, so the rewrite is exact and
// the repetition vector is unchanged.
func (s *LiftStep) checkRateGCD(before *sdf.Graph) error {
	if s.Scale != 1 {
		return invalidf("rate-gcd step has scale %d, want 1", s.Scale)
	}
	if err := s.checkIdentityActors(before); err != nil {
		return err
	}
	if s.Reduced.NumChannels() != before.NumChannels() {
		return invalidf("rate-gcd step changes channel count %d -> %d",
			before.NumChannels(), s.Reduced.NumChannels())
	}
	for i, c := range before.Channels() {
		r := s.Reduced.Channel(sdf.ChannelID(i))
		if r.Src != c.Src || r.Dst != c.Dst {
			return invalidf("rate-gcd step rewires channel %s -> %s",
				before.Actor(c.Src).Name, before.Actor(c.Dst).Name)
		}
		if r.Prod < 1 || c.Prod%r.Prod != 0 {
			return invalidf("rate-gcd step: channel %s -> %s production %d not a multiple of %d",
				before.Actor(c.Src).Name, before.Actor(c.Dst).Name, c.Prod, r.Prod)
		}
		d := c.Prod / r.Prod
		if c.Cons != d*r.Cons || c.Initial != d*r.Initial {
			return invalidf("rate-gcd step: channel %s -> %s not divided by a common factor",
				before.Actor(c.Src).Name, before.Actor(c.Dst).Name)
		}
	}
	return s.checkScale(before)
}

// sccSizes returns, per actor, the size of its strongly connected
// component in g (iterative Tarjan).
func sccSizes(g *sdf.Graph) []int {
	n := g.NumActors()
	adj := make([][]int, n)
	for _, c := range g.Channels() {
		adj[c.Src] = append(adj[c.Src], int(c.Dst))
	}
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	comp := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	next := 0
	comps := 0
	sizes := []int{}
	type frame struct{ v, i int }
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{root, 0}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(adj[f.v]) {
				w := adj[f.v][f.i]
				f.i++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			if low[f.v] == index[f.v] {
				size := 0
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = comps
					size++
					if w == f.v {
						break
					}
				}
				sizes = append(sizes, size)
				comps++
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = sizes[comp[i]]
	}
	return out
}

// checkDeadActor verifies a dead-actor elimination: the removed actors
// lie on no directed cycle (trivial SCC, no self-loop), the kept actors
// and the channels among them transfer unchanged, and the kept
// repetition counts shrink by one uniform scale. Actors outside every
// cycle never determine the maximum cycle mean, so the iteration period
// lifts exactly by that scale.
func (s *LiftStep) checkDeadActor(before *sdf.Graph) error {
	if s.Reduced.NumActors() < 1 {
		return invalidf("dead-actor step empties the graph")
	}
	kept := 0
	seen := make([]bool, s.Reduced.NumActors())
	for a, m := range s.ActorMap {
		if m == -1 {
			continue
		}
		if seen[m] {
			return invalidf("dead-actor step merges actors onto %s", s.Reduced.Actor(m).Name)
		}
		seen[m] = true
		kept++
		b, r := before.Actor(sdf.ActorID(a)), s.Reduced.Actor(m)
		if b.Name != r.Name || b.Exec != r.Exec {
			return invalidf("dead-actor step alters kept actor %s", b.Name)
		}
	}
	if kept != s.Reduced.NumActors() {
		return invalidf("dead-actor step invents %d actors", s.Reduced.NumActors()-kept)
	}
	if kept == before.NumActors() {
		return invalidf("dead-actor step removes no actor")
	}
	sizes := sccSizes(before)
	selfLoop := make([]bool, before.NumActors())
	for _, c := range before.Channels() {
		if c.Src == c.Dst {
			selfLoop[c.Src] = true
		}
	}
	for a, m := range s.ActorMap {
		if m != -1 {
			continue
		}
		if sizes[a] > 1 || selfLoop[a] {
			return invalidf("dead-actor step removes actor %s, which lies on a cycle",
				before.Actor(sdf.ActorID(a)).Name)
		}
	}
	want := make(map[chanKey]int)
	for _, c := range before.Channels() {
		ms, md := s.ActorMap[c.Src], s.ActorMap[c.Dst]
		if ms == -1 || md == -1 {
			continue
		}
		want[chanKey{ms, md, c.Prod, c.Cons, c.Initial}]++
	}
	got := channelSet(s.Reduced)
	if len(got) != len(want) {
		return invalidf("dead-actor step changes the kept channel set")
	}
	for k, n := range want {
		if got[k] != n {
			return invalidf("dead-actor step changes channel %s -> %s",
				s.Reduced.Actor(k.src).Name, s.Reduced.Actor(k.dst).Name)
		}
	}
	return s.checkScale(before)
}

// checkChainFusion verifies a chain fusion: each entry of Chains lists,
// in chain order, the pre-step actors fused into one reduced actor. One
// pass over the channels proves for every chain x1…xk (k >= 2) that each
// xi with i < k has at least one output and every output feeds x(i+1)
// with matched rates and no initial tokens, and that each xi with i > 1
// takes every input from x(i−1). Under those conditions fusing x1·x2,
// then the result with x3, and so on, is a sequence of valid pair
// fusions — x(i+1)'s k-th firing starts exactly when xi's k-th
// completes, so one sequential actor preserves every external event
// time. The checker further requires the fused actor to execute for the
// chain's summed time, every other actor to stay in place unaltered, and
// the reduced channels to be the non-link channels mapped through
// ActorMap; the rewrite is then exact up to the recorded uniform scale.
func (s *LiftStep) checkChainFusion(before *sdf.Graph) error {
	if len(s.Chains) == 0 {
		return invalidf("chain-fusion step fuses no chain")
	}
	n := before.NumActors()
	chainOf := make([]int, n)
	pos := make([]int, n)
	for a := range chainOf {
		chainOf[a] = -1
	}
	claimed, nClaimed := make([]bool, s.Reduced.NumActors()), 0
	claim := func(a sdf.ActorID) error {
		m := s.ActorMap[a]
		if m == -1 {
			return invalidf("chain-fusion step removes actor %s", before.Actor(a).Name)
		}
		if claimed[m] {
			return invalidf("chain-fusion step merges more than one chain or actor onto %s", s.Reduced.Actor(m).Name)
		}
		claimed[m] = true
		nClaimed++
		return nil
	}
	for k, chain := range s.Chains {
		if len(chain) < 2 {
			return invalidf("chain-fusion step lists a chain of %d member(s)", len(chain))
		}
		var exec int64
		for i, m := range chain {
			if m < 0 || int(m) >= n || chainOf[m] != -1 {
				return invalidf("chain-fusion step lists actor %d out of range or twice", m)
			}
			chainOf[m], pos[m] = k, i
			if s.ActorMap[m] != s.ActorMap[chain[0]] {
				return invalidf("chain-fusion step splits the chain of %s", before.Actor(chain[0]).Name)
			}
			var ok bool
			if exec, ok = rat.AddChecked(exec, before.Actor(m).Exec); !ok {
				return invalidf("chain-fusion step: fused execution time overflows int64")
			}
		}
		if err := claim(chain[0]); err != nil {
			return err
		}
		if got := s.Reduced.Actor(s.ActorMap[chain[0]]).Exec; got != exec {
			return invalidf("chain-fusion step: fused actor executes for %d, want %d", got, exec)
		}
	}
	for a := 0; a < n; a++ {
		if chainOf[a] != -1 {
			continue
		}
		if err := claim(sdf.ActorID(a)); err != nil {
			return err
		}
		b, r := before.Actor(sdf.ActorID(a)), s.Reduced.Actor(s.ActorMap[a])
		if b.Name != r.Name || b.Exec != r.Exec {
			return invalidf("chain-fusion step alters bystander actor %s", b.Name)
		}
	}
	if nClaimed != len(claimed) {
		return invalidf("chain-fusion step invents actors")
	}
	linked := make([]bool, n)
	want := make(map[chanKey]int, before.NumChannels())
	for _, c := range before.Channels() {
		if k := chainOf[c.Src]; k != -1 && pos[c.Src] < len(s.Chains[k])-1 {
			if c.Dst != s.Chains[k][pos[c.Src]+1] || c.Prod != c.Cons || c.Initial != 0 {
				return invalidf("chain-fusion step: actor %s has an output escaping the chain",
					before.Actor(c.Src).Name)
			}
			linked[c.Src] = true
			continue // the link disappears inside the fused actor
		}
		if chainOf[c.Dst] != -1 && pos[c.Dst] > 0 {
			return invalidf("chain-fusion step: actor %s has an input bypassing the chain",
				before.Actor(c.Dst).Name)
		}
		want[chanKey{s.ActorMap[c.Src], s.ActorMap[c.Dst], c.Prod, c.Cons, c.Initial}]++
	}
	for _, chain := range s.Chains {
		for i, m := range chain[:len(chain)-1] {
			if !linked[m] {
				return invalidf("chain-fusion step: actors %s and %s are not connected",
					before.Actor(m).Name, before.Actor(chain[i+1]).Name)
			}
		}
	}
	got := channelSet(s.Reduced)
	if len(got) != len(want) {
		return invalidf("chain-fusion step changes the external channel set")
	}
	for k, cnt := range want {
		if got[k] != cnt {
			return invalidf("chain-fusion step changes channel %s -> %s",
				s.Reduced.Actor(k.src).Name, s.Reduced.Actor(k.dst).Name)
		}
	}
	return s.checkScale(before)
}

// checkAbstraction verifies a Definitions 3–4 abstraction step: the
// abstract graph is the mechanical Definition 4 construction for the
// carried (Alpha, Index), and the Theorem 1 obligation is discharged
// through the Proposition 1 machinery, so the period lifts as the
// conservative bound Λ(before) ≤ N·Λ(reduced).
func (s *LiftStep) checkAbstraction(ctx context.Context, before *sdf.Graph) error {
	ab := &core.Abstraction{Alpha: s.Alpha, Index: s.Index}
	if int64(ab.N()) != s.Scale {
		return invalidf("abstraction step has round length %d but scale %d", ab.N(), s.Scale)
	}
	if err := core.VerifyAbstractionConservative(before, ab); err != nil {
		return fmt.Errorf("%w: abstraction step theorem 1 obligation: %v", ErrInvalid, err)
	}
	abstract, res, err := core.Abstract(before, ab)
	if err != nil {
		return invalidf("abstraction step cannot be reconstructed: %v", err)
	}
	if abstract.NumActors() != s.Reduced.NumActors() {
		return invalidf("abstraction step carries %d abstract actors, reconstruction has %d",
			s.Reduced.NumActors(), abstract.NumActors())
	}
	for i := 0; i < abstract.NumActors(); i++ {
		w, r := abstract.Actor(sdf.ActorID(i)), s.Reduced.Actor(sdf.ActorID(i))
		if w.Name != r.Name || w.Exec != r.Exec {
			return invalidf("abstraction step alters abstract actor %s", w.Name)
		}
	}
	want := channelSet(abstract)
	got := channelSet(s.Reduced)
	if len(got) != len(want) {
		return invalidf("abstraction step changes the abstract channel set")
	}
	for k, n := range want {
		if got[k] != n {
			return invalidf("abstraction step changes abstract channel %s -> %s",
				s.Reduced.Actor(k.src).Name, s.Reduced.Actor(k.dst).Name)
		}
	}
	for a, m := range s.ActorMap {
		if m != res.AbstractActor[a] {
			return invalidf("abstraction step maps actor %s inconsistently",
				before.Actor(sdf.ActorID(a)).Name)
		}
	}
	return nil
}

// ReductionCert certifies a throughput answer computed on a reduced
// graph and lifted back to the original through a chain of LiftSteps:
// each step is checked as a sound instance of its rule against the
// graph the previous step produced, the inner throughput certificate is
// checked against the final reduced graph, and the lifted period must
// equal the inner period times the product of the step scales. When the
// chain contains an abstraction step the lifted period is only an upper
// bound (Theorem 1) and Bound records that.
type ReductionCert struct {
	// Steps is the reduction chain, first step applied to the original
	// graph.
	Steps []LiftStep
	// Inner certifies the throughput of the final reduced graph.
	Inner *ThroughputCert
	// Bound is true when the chain contains an abstraction step, making
	// Period an upper bound on the original iteration period rather than
	// its exact value.
	Bound bool
	// Unbounded mirrors the inner claim: the reduced graph is acyclic
	// exactly when the original is, for every rule here.
	Unbounded bool
	// Period is the lifted iteration period of the original graph
	// (meaningless when Unbounded).
	Period rat.Rat
	// Q is the minimal repetition vector of the original graph.
	Q []int64
}

// Kind returns KindReduction.
func (c *ReductionCert) Kind() Kind { return KindReduction }

// String summarises the certificate for reports.
func (c *ReductionCert) String() string {
	mode := "exact"
	if c.Bound {
		mode = "bound"
	}
	inner := "none"
	if c.Inner != nil {
		inner = c.Inner.String()
	}
	return fmt.Sprintf("reduction(%d steps, %s, inner %s)", len(c.Steps), mode, inner)
}

// Check walks the reduction chain from g, validates every step and the
// inner certificate, and confirms the lifted period arithmetic.
func (c *ReductionCert) Check(ctx context.Context, g *sdf.Graph) error {
	cur := g
	scale := int64(1)
	abstracted := false
	for i := range c.Steps {
		step := &c.Steps[i]
		if err := step.Check(ctx, cur); err != nil {
			return fmt.Errorf("reduction step %d: %w", i+1, err)
		}
		next, ok := rat.MulChecked(scale, step.Scale)
		if !ok {
			return invalidf("reduction chain scale overflows int64")
		}
		scale = next
		if step.Rule == RuleAbstraction {
			abstracted = true
		}
		cur = step.Reduced
	}
	if c.Bound != abstracted {
		return invalidf("certificate claims bound=%v but chain abstraction=%v", c.Bound, abstracted)
	}
	if c.Inner == nil {
		return invalidf("reduction certificate carries no inner throughput certificate")
	}
	if err := c.Inner.Check(ctx, cur); err != nil {
		return fmt.Errorf("reduced-graph throughput certificate: %w", err)
	}
	if c.Unbounded != c.Inner.Unbounded {
		return invalidf("certificate claims unbounded=%v, inner proves %v", c.Unbounded, c.Inner.Unbounded)
	}
	if !c.Unbounded {
		want, err := c.Inner.Period.MulInt(scale)
		if err != nil {
			return invalidf("lifted period %v x %d overflows", c.Inner.Period, scale)
		}
		if !c.Period.Equal(want) {
			return invalidf("certificate claims period %v, chain lifts %v x %d = %v",
				c.Period, c.Inner.Period, scale, want)
		}
	}
	if err := checkRepetition(g, c.Q); err != nil {
		return fmt.Errorf("original repetition vector: %w", err)
	}
	return nil
}
