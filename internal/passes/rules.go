package passes

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// Value is an analysis answer on either end of a reduction chain: the
// iteration period of the reduced graph, or its lift to the original
// (Reduction.Lift). Bound is true when the chain crossed a conservative
// (abstraction) step, so Period is an upper bound on the original
// period rather than its exact value.
type Value struct {
	Period    rat.Rat
	Unbounded bool
	Bound     bool
}

// Application records one successful rule rewrite: the graphs on both
// sides, the actor back-map and the repetition-vector scale relating
// their iterations — everything a verify.LiftStep needs to re-check the
// rewrite independently.
type Application struct {
	// Rule is the applied rule.
	Rule *Rule
	// Before and After are the graphs around the rewrite.
	Before *sdf.Graph
	After  *sdf.Graph
	// Scale relates iterations: one Before iteration contains Scale
	// After iterations.
	Scale int64
	// ActorMap maps Before actors to After actors (-1 = removed).
	ActorMap []sdf.ActorID
	// QBefore and QAfter are the minimal repetition vectors (nil for the
	// abstraction rule, which carries Alpha/Index instead).
	QBefore []int64
	QAfter  []int64
	// Alpha and Index record the Definition 3 abstraction for
	// abstraction applications.
	Alpha []string
	Index []int
	// Chains lists, for chain-fusion applications, the Before actors
	// fused into each After actor, in chain order.
	Chains [][]sdf.ActorID
	// Note is the one-line human description used in reduction traces.
	Note string
}

// LiftStep converts the application to its checkable certificate step.
func (a *Application) LiftStep() verify.LiftStep {
	return verify.LiftStep{
		Rule:     a.Rule.Name,
		Reduced:  a.After,
		Scale:    a.Scale,
		ActorMap: a.ActorMap,
		QBefore:  a.QBefore,
		QAfter:   a.QAfter,
		Alpha:    a.Alpha,
		Index:    a.Index,
		Chains:   a.Chains,
	}
}

// Rule is one reduction rule of the pass manager: Reduce rewrites the
// graph or reports that the rule does not apply. Every rule relates
// periods the same way — an exact rewrite keeps Λ up to the iteration
// scale, an abstraction bounds it by N·Λ (Theorem 1) — so the one lift
// lives on the Reduction, not on the rule.
type Rule struct {
	// Name identifies the rule; it doubles as the verify.LiftStep rule
	// tag, so it must be one of the verify.Rule* constants.
	Name string
	// Doc is the one-line description shown by sdftool reduce.
	Doc string
	// Exact reports whether the rule preserves the iteration period
	// exactly (up to the recorded scale); inexact rules yield
	// conservative bounds and are excluded from DefaultRules.
	Exact bool
	// Preserves names the facts a rewrite by this rule keeps valid; the
	// driver transfers exactly these via Facts.Rebind.
	Preserves FactSet
	// Reduce attempts one rewrite against the graph described by the
	// facts. It returns (nil, nil) when the rule does not apply. A
	// non-nil Application must describe a strictly smaller graph (fewer
	// actors, channels or rate magnitude) so the fixpoint terminates.
	Reduce func(*Facts) (*Application, error)
}

// reducePruneRedundant removes §4.2-redundant channels: of several
// parallel channels with identical endpoints and rates only the one
// with the fewest initial tokens constrains execution.
func reducePruneRedundant(f *Facts) (*Application, error) {
	g := f.Graph()
	pruned, removed := core.PruneRedundantChannels(g)
	if removed == 0 {
		return nil, nil
	}
	q, err := f.Repetition()
	if err != nil {
		return nil, nil
	}
	return &Application{
		Before:   g,
		After:    pruned,
		Scale:    1,
		ActorMap: identityMap(g.NumActors()),
		QBefore:  q,
		QAfter:   q,
		Note:     fmt.Sprintf("removed %d redundant parallel channel(s)", removed),
	}, nil
}

// reduceRateGCD divides every channel's (prod, cons, initial) by their
// gcd; the SDF precedence constraint is invariant under the division,
// so rates shrink and the repetition vector is untouched.
func reduceRateGCD(f *Facts) (*Application, error) {
	g := f.Graph()
	gcds := f.RateGCDs()
	divisible := 0
	for _, d := range gcds {
		if d > 1 {
			divisible++
		}
	}
	if divisible == 0 {
		return nil, nil
	}
	q, err := f.Repetition()
	if err != nil {
		return nil, nil
	}
	out := sdf.NewGraph(g.Name())
	for _, a := range g.Actors() {
		if _, err := out.AddActor(a.Name, a.Exec); err != nil {
			return nil, nil
		}
	}
	for i, c := range g.Channels() {
		d := gcds[i]
		if d < 1 {
			d = 1
		}
		if _, err := out.AddChannel(c.Src, c.Dst, c.Prod/d, c.Cons/d, c.Initial/d); err != nil {
			// Dividing can collapse two parallel channels onto the same
			// 5-tuple, which Validate rejects; leave those to the prune
			// rule by skipping this rewrite.
			return nil, nil
		}
	}
	if err := out.Validate(); err != nil {
		return nil, nil
	}
	return &Application{
		Before:   g,
		After:    out,
		Scale:    1,
		ActorMap: identityMap(g.NumActors()),
		QBefore:  q,
		QAfter:   q,
		Note:     fmt.Sprintf("normalised rates on %d channel(s)", divisible),
	}, nil
}

// reduceDeadActor removes every actor that lies on no directed cycle.
// Such actors never determine the maximum cycle mean, so the iteration
// period of the remainder lifts exactly — provided the kept repetition
// counts shrink by one uniform scale, which the rule verifies and
// otherwise declines.
func reduceDeadActor(f *Facts) (*Application, error) {
	g := f.Graph()
	n := g.NumActors()
	dead := make([]bool, n)
	nDead := 0
	for a := 0; a < n; a++ {
		if !f.OnCycle(sdf.ActorID(a)) {
			dead[a] = true
			nDead++
		}
	}
	if nDead == 0 || nDead == n {
		return nil, nil
	}
	qB, err := f.Repetition()
	if err != nil {
		return nil, nil
	}
	out := sdf.NewGraph(g.Name())
	actorMap := make([]sdf.ActorID, n)
	for a := 0; a < n; a++ {
		if dead[a] {
			actorMap[a] = -1
			continue
		}
		id, err := out.AddActor(g.Actor(sdf.ActorID(a)).Name, g.Actor(sdf.ActorID(a)).Exec)
		if err != nil {
			return nil, nil
		}
		actorMap[a] = id
	}
	for _, c := range g.Channels() {
		if dead[c.Src] || dead[c.Dst] {
			continue
		}
		if _, err := out.AddChannel(actorMap[c.Src], actorMap[c.Dst], c.Prod, c.Cons, c.Initial); err != nil {
			return nil, nil
		}
	}
	if err := out.Validate(); err != nil {
		return nil, nil
	}
	qA, scale, ok := uniformScale(out, qB, actorMap)
	if !ok {
		return nil, nil
	}
	return &Application{
		Before:   g,
		After:    out,
		Scale:    scale,
		ActorMap: actorMap,
		QBefore:  qB,
		QAfter:   qA,
		Note:     fmt.Sprintf("removed %d cycle-free actor(s)", nDead),
	}, nil
}

// reduceChainFusion fuses every maximal chain of the graph in one
// rewrite. A link a→b holds when every output of a feeds b with matched
// rates and no initial tokens, every input of b comes from a, and
// neither end has a self-loop: b's k-th firing then starts exactly when
// a's k-th completes. A chain is a maximal path of links; one sequential
// actor executing for the chain's summed time reproduces every external
// event time, the exact case of the Definitions 3–4 group merge with the
// chain order as index function. Links closing a cycle among themselves
// have no head and stay unfused (that cycle holds no token, so the
// precheck refuses it as a deadlock), as does a chain whose summed
// execution time overflows int64.
func reduceChainFusion(f *Facts) (*Application, error) {
	g := f.Graph()
	qB, err := f.Repetition()
	if err != nil {
		return nil, nil
	}
	// One O(V+E) sweep finds per actor its unique fusable successor (all
	// outputs feed one actor with matched rates and no initial tokens)
	// and unique predecessor.
	const none = sdf.ActorID(-1)
	const unseen = sdf.ActorID(-2)
	n := g.NumActors()
	succ := make([]sdf.ActorID, n)
	pred := make([]sdf.ActorID, n)
	for i := range succ {
		succ[i], pred[i] = unseen, unseen
	}
	for _, c := range g.Channels() {
		switch {
		case c.Src == c.Dst || c.Prod != c.Cons || c.Initial != 0:
			succ[c.Src] = none
		case succ[c.Src] == unseen:
			succ[c.Src] = c.Dst
		case succ[c.Src] != c.Dst:
			succ[c.Src] = none
		}
		switch {
		case pred[c.Dst] == unseen:
			pred[c.Dst] = c.Src
		case pred[c.Dst] != c.Src:
			pred[c.Dst] = none
		}
	}
	// Keep succ[a] only where a→succ[a] is a link; chains start at the
	// actors with a link out but none in.
	linkedIn := make([]bool, n)
	for a, b := range succ {
		if b >= 0 && pred[b] == sdf.ActorID(a) {
			linkedIn[b] = true
		} else {
			succ[a] = none
		}
	}
	chainOf := make([]int, n)
	var chains [][]sdf.ActorID
	var execs []int64
	for a := range chainOf {
		chainOf[a] = -1
	}
	for a := 0; a < n; a++ {
		if succ[a] == none || linkedIn[a] {
			continue
		}
		chain := []sdf.ActorID{sdf.ActorID(a)}
		exec, ok := g.Actor(sdf.ActorID(a)).Exec, true
		for b := succ[a]; b != none && ok; b = succ[b] {
			chain = append(chain, b)
			exec, ok = rat.AddChecked(exec, g.Actor(b).Exec)
		}
		if !ok {
			continue
		}
		for _, m := range chain {
			chainOf[m] = len(chains)
		}
		chains = append(chains, chain)
		execs = append(execs, exec)
	}
	if len(chains) == 0 {
		return nil, nil
	}
	// The fused actor takes its head's place; the other members vanish.
	out := sdf.NewGraph(g.Name())
	actorMap := make([]sdf.ActorID, n)
	fused := 0
	for i, k := range chainOf {
		a := g.Actor(sdf.ActorID(i))
		name, exec := a.Name, a.Exec
		if k >= 0 {
			if chains[k][0] != sdf.ActorID(i) {
				continue
			}
			names := make([]string, len(chains[k]))
			for j, m := range chains[k] {
				names[j] = g.Actor(m).Name
			}
			name, exec = strings.Join(names, "+"), execs[k]
			fused += len(names)
		}
		id, err := out.AddActor(name, exec)
		if err != nil {
			return nil, nil
		}
		actorMap[i] = id
	}
	for _, chain := range chains {
		for _, m := range chain[1:] {
			actorMap[m] = actorMap[chain[0]]
		}
	}
	for _, c := range g.Channels() {
		if chainOf[c.Src] >= 0 && succ[c.Src] != none {
			continue // a link inside a chain disappears
		}
		if _, err := out.AddChannel(actorMap[c.Src], actorMap[c.Dst], c.Prod, c.Cons, c.Initial); err != nil {
			return nil, nil
		}
	}
	if err := out.Validate(); err != nil {
		return nil, nil
	}
	qA, scale, ok := uniformScale(out, qB, actorMap)
	if !ok {
		return nil, nil
	}
	return &Application{
		Before:   g,
		After:    out,
		Scale:    scale,
		ActorMap: actorMap,
		QBefore:  qB,
		QAfter:   qA,
		Chains:   chains,
		Note:     fmt.Sprintf("fused %d actors in %d chain(s)", fused, len(chains)),
	}, nil
}

// reduceAbstraction collapses a homogeneous graph into a single
// abstract actor per Definitions 3–4, indexing the firing round by a
// deterministic topological order of the zero-delay channels. The
// result is conservative (Theorem 1), not exact, so the rule lives in
// AllRules but not DefaultRules.
func reduceAbstraction(f *Facts) (*Application, error) {
	g := f.Graph()
	n := g.NumActors()
	if n < 2 || !g.IsHSDF() || !f.Consistent() {
		return nil, nil
	}
	index, ok := zeroDelayOrder(g)
	if !ok {
		return nil, nil
	}
	alpha := make([]string, n)
	for i := range alpha {
		alpha[i] = "abs"
	}
	ab := &core.Abstraction{Alpha: alpha, Index: index}
	if core.VerifyAbstractionConservative(g, ab) != nil {
		return nil, nil
	}
	after, res, err := core.Abstract(g, ab)
	if err != nil {
		return nil, nil
	}
	return &Application{
		Before:   g,
		After:    after,
		Scale:    int64(res.N),
		ActorMap: res.AbstractActor,
		Alpha:    alpha,
		Index:    index,
		Note:     fmt.Sprintf("abstracted %d actors into one (round length %d)", n, res.N),
	}, nil
}

// zeroDelayOrder assigns each actor a distinct index respecting the
// partial order of zero-delay channels (Kahn's algorithm, smallest
// actor id first for determinism); ok is false when the zero-delay
// subgraph has a cycle.
func zeroDelayOrder(g *sdf.Graph) (index []int, ok bool) {
	n := g.NumActors()
	indeg := make([]int, n)
	adj := make([][]sdf.ActorID, n)
	for _, c := range g.Channels() {
		if c.Initial == 0 && c.Src != c.Dst {
			adj[c.Src] = append(adj[c.Src], c.Dst)
			indeg[c.Dst]++
		}
	}
	ready := make([]int, 0, n)
	for a := 0; a < n; a++ {
		if indeg[a] == 0 {
			ready = append(ready, a)
		}
	}
	sort.Ints(ready)
	index = make([]int, n)
	placed := 0
	for len(ready) > 0 {
		a := ready[0]
		ready = ready[1:]
		index[a] = placed
		placed++
		released := []int{}
		for _, v := range adj[a] {
			indeg[v]--
			if indeg[v] == 0 {
				released = append(released, int(v))
			}
		}
		sort.Ints(released)
		ready = append(ready, released...)
	}
	return index, placed == n
}

// uniformScale computes the minimal repetition vector of the reduced
// graph and the uniform factor s with qBefore[a] = s·qAfter[map[a]] for
// every kept actor; ok is false when the graph is inconsistent or the
// factor is not uniform.
func uniformScale(after *sdf.Graph, qBefore []int64, actorMap []sdf.ActorID) (qAfter []int64, scale int64, ok bool) {
	qAfter, err := after.RepetitionVector()
	if err != nil {
		return nil, 0, false
	}
	scale = 0
	for a, m := range actorMap {
		if m == -1 {
			continue
		}
		if qBefore[a]%qAfter[m] != 0 {
			return nil, 0, false
		}
		s := qBefore[a] / qAfter[m]
		if scale == 0 {
			scale = s
		} else if s != scale {
			return nil, 0, false
		}
	}
	if scale < 1 {
		return nil, 0, false
	}
	return qAfter, scale, true
}

func identityMap(n int) []sdf.ActorID {
	m := make([]sdf.ActorID, n)
	for i := range m {
		m[i] = sdf.ActorID(i)
	}
	return m
}

// exactPreserved is the fact set survived by the structure-preserving
// exact rules (prune, rate-gcd): same actors, same components, same
// cycle membership.
const exactPreserved = FactRepetition | FactComponents | FactCycles

// DefaultRules returns the exact reduction rules in their canonical
// fixpoint order: cheapest and most enabling first. Every rule
// preserves the iteration period up to its recorded scale, so the
// default reduction is always safe in front of an exact engine.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name:      verify.RulePruneRedundant,
			Doc:       "drop parallel channels dominated by an equal-rate channel with fewer initial tokens (§4.2)",
			Exact:     true,
			Preserves: exactPreserved,
			Reduce:    reducePruneRedundant,
		},
		{
			Name:      verify.RuleRateGCD,
			Doc:       "divide each channel's (prod, cons, initial) by their gcd; precedence constraints are invariant",
			Exact:     true,
			Preserves: exactPreserved,
			Reduce:    reduceRateGCD,
		},
		{
			Name:   verify.RuleDeadActor,
			Doc:    "remove actors on no directed cycle; they never determine the maximum cycle mean",
			Exact:  true,
			Reduce: reduceDeadActor,
		},
		{
			Name:   verify.RuleChainFusion,
			Doc:    "fuse every maximal chain of matched-rate, token-free links into one sequential actor",
			Exact:  true,
			Reduce: reduceChainFusion,
		},
	}
}

// AllRules returns every registered rule: the exact DefaultRules plus
// the conservative abstraction rule (Definitions 3–4), which turns the
// lifted answer into an upper bound and therefore must be opted into.
func AllRules() []Rule {
	return append(DefaultRules(), Rule{
		Name:   verify.RuleAbstraction,
		Doc:    "collapse a homogeneous graph into one abstract actor (Defs 3–4); lifted answers become Theorem 1 bounds",
		Exact:  false,
		Reduce: reduceAbstraction,
	})
}

// RulesByName resolves a comma-separated rule list against AllRules,
// preserving the requested order.
func RulesByName(names []string) ([]Rule, error) {
	all := AllRules()
	byName := make(map[string]Rule, len(all))
	known := make([]string, 0, len(all))
	for _, r := range all {
		byName[r.Name] = r
		known = append(known, r.Name)
	}
	out := make([]Rule, 0, len(names))
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("passes: unknown rule %q (have %s)", name, strings.Join(known, ", "))
		}
		out = append(out, r)
	}
	return out, nil
}
