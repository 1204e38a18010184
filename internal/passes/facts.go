// Package passes is the static-analysis pass manager of the repository:
// a memoized fact layer over SDF graphs, a table of certified reduction
// rules that only rewrite, and a deterministic fixpoint driver that
// shrinks a graph before any expensive engine runs on it and lifts the
// answer back by the chain's iteration scale.
//
// The paper's reduction techniques — redundant-channel pruning (§4.2),
// abstraction (Definitions 3–4) — and the classical exact rewrites
// (rate normalisation, dead-actor elimination, chain fusion) are each
// one Rule. A Rule application records enough structure for
// internal/verify to re-check the rewrite independently (LiftStep), so
// every answer computed on a reduced graph ships a certificate chain
// back to the original.
//
// The fact layer exists because the lint passes, the admission-cost
// estimate and the reduction rules all need the same handful of
// analyses — repetition vector, connectivity, cycle membership, rate
// gcds — and used to recompute them per consumer. Facts computes each
// once per graph, on demand, and Rebind transfers exactly the facts a
// rewrite declares preserved. A caller that prechecks a graph starts the
// fixpoint from the same table (Facts.Reduce), so one table serves the
// precheck, the reduction and the admission price.
package passes

import (
	"sync"

	"repro/internal/rat"
	"repro/internal/sdf"
)

// FactSet is a bit set naming the memoized analyses of a Facts. Rules
// declare which facts their rewrite preserves; Rebind transfers exactly
// those to the Facts of the rewritten graph.
type FactSet uint32

const (
	// FactRepetition is the minimal repetition vector (and the derived
	// iteration length Σq).
	FactRepetition FactSet = 1 << iota
	// FactComponents is the weakly-connected-component structure.
	FactComponents
	// FactCycles is cycle membership: strongly connected component
	// sizes and self-loop flags per actor.
	FactCycles
	// FactRates is the per-channel gcd of (prod, cons, initial).
	FactRates
	// FactCost is the admission-control cost estimate.
	FactCost
)

// CostClamp bounds the contribution of the iteration length Σq to the
// cost estimate, so one explosive graph saturates an admission pool
// without overflowing it.
const CostClamp = 1 << 16

// Facts lazily memoizes the shared static analyses of one immutable
// graph. The zero value is not usable; construct with NewFacts. All
// methods are safe for concurrent use.
type Facts struct {
	g *sdf.Graph

	mu   sync.Mutex
	have FactSet

	q       []int64
	qErr    error
	iterLen int64 // Σq; valid when iterOK
	iterOK  bool

	comps [][]sdf.ActorID

	sccSize  []int
	selfLoop []bool

	rateGCD []int

	cost int64
}

// NewFacts binds a fresh, empty fact table to g. The graph must not be
// mutated afterwards — every fact is memoized against its structure.
func NewFacts(g *sdf.Graph) *Facts {
	return &Facts{g: g}
}

// Graph returns the graph the facts describe.
func (f *Facts) Graph() *sdf.Graph { return f.g }

// Have reports which facts are currently computed (useful in tests of
// the invalidation contract).
func (f *Facts) Have() FactSet {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.have
}

// Repetition returns the minimal repetition vector of the graph, or the
// solver's error for inconsistent (or overflowing) graphs. Both are
// computed once.
func (f *Facts) Repetition() ([]int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.repetitionLocked()
	return f.q, f.qErr
}

func (f *Facts) repetitionLocked() {
	if f.have&FactRepetition != 0 {
		return
	}
	f.q, f.qErr = f.g.RepetitionVector()
	f.iterLen, f.iterOK = 0, false
	if f.qErr == nil {
		var sum int64
		ok := true
		for _, v := range f.q {
			sum, ok = rat.AddChecked(sum, v)
			if !ok {
				break
			}
		}
		if ok {
			f.iterLen, f.iterOK = sum, true
		}
	}
	f.have |= FactRepetition
}

// Consistent reports whether the balance equations admit a solution.
func (f *Facts) Consistent() bool {
	_, err := f.Repetition()
	return err == nil
}

// IterationLength returns Σq and true, or 0 and false when the graph is
// inconsistent or the sum overflows int64.
func (f *Facts) IterationLength() (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.repetitionLocked()
	return f.iterLen, f.iterOK
}

// Components returns the weakly connected components as actor lists,
// largest first (ties broken by smallest member id). Callers must not
// mutate the result.
func (f *Facts) Components() [][]sdf.ActorID {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.have&FactComponents == 0 {
		f.comps = weakComponents(f.g)
		f.have |= FactComponents
	}
	return f.comps
}

// SCCSizes returns, per actor, the size of its strongly connected
// component. Callers must not mutate the result.
func (f *Facts) SCCSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cyclesLocked()
	return f.sccSize
}

// OnCycle reports whether actor a lies on a directed cycle: its SCC has
// more than one member, or it carries a self-loop.
func (f *Facts) OnCycle(a sdf.ActorID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cyclesLocked()
	return f.sccSize[a] > 1 || f.selfLoop[a]
}

func (f *Facts) cyclesLocked() {
	if f.have&FactCycles != 0 {
		return
	}
	n := f.g.NumActors()
	adj := make([][]sdf.ActorID, n)
	for _, c := range f.g.Channels() {
		if c.Src != c.Dst {
			adj[c.Src] = append(adj[c.Src], c.Dst)
		}
	}
	comp := SCC(n, adj)
	size := make(map[int]int, n)
	for _, id := range comp {
		size[id]++
	}
	f.sccSize = make([]int, n)
	for a, id := range comp {
		f.sccSize[a] = size[id]
	}
	f.selfLoop = make([]bool, n)
	for _, c := range f.g.Channels() {
		if c.Src == c.Dst {
			f.selfLoop[c.Src] = true
		}
	}
	f.have |= FactCycles
}

// RateGCDs returns, per channel, the gcd of (prod, cons, initial) —
// the factor the rate-gcd rule can divide out. Callers must not mutate
// the result.
func (f *Facts) RateGCDs() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.have&FactRates == 0 {
		f.rateGCD = make([]int, f.g.NumChannels())
		for i, c := range f.g.Channels() {
			d := int(rat.GCD(rat.GCD(int64(c.Prod), int64(c.Cons)), int64(c.Initial)))
			f.rateGCD[i] = d
		}
		f.have |= FactRates
	}
	return f.rateGCD
}

// Cost is the admission-control work estimate of analysing the graph,
// in abstract pool units: the structural size plus the iteration length
// Σq (clamped at CostClamp), the dominant term of the state-space and
// HSDF engines. Inconsistent graphs cost their structure only — the
// lint precheck refuses them before an engine runs.
func (f *Facts) Cost() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.have&FactCost == 0 {
		f.repetitionLocked()
		g := f.g
		cost := int64(1) + int64(g.NumActors()) + int64(g.NumChannels()) + int64(g.TotalInitialTokens())
		if f.qErr == nil {
			switch {
			case !f.iterOK:
				cost += CostClamp
			case f.iterLen > CostClamp:
				cost += CostClamp
			default:
				cost += f.iterLen
			}
		}
		f.cost = cost
		f.have |= FactCost
	}
	return f.cost
}

// PeriodFloor is a cheap, sound lower bound on the iteration period Λ
// of the graph, derived from self-loop dependency chains only: a
// channel a→a with rate p and t initial tokens lets at most ⌊t/p⌋
// firings of a overlap, so the q(a) firings of one iteration take at
// least q(a)·exec(a)/⌊t/p⌋ time. The bound deliberately uses nothing
// but self-loops — under the paper's auto-concurrency semantics,
// firings of an actor without one may overlap without limit, so
// per-actor terms like q(a)·exec(a) are not sound. Graphs with no
// delayed self-loop floor at zero; ok is false when the graph is
// inconsistent (no repetition vector, so no iteration to bound) or the
// arithmetic overflows int64.
func (f *Facts) PeriodFloor() (floor rat.Rat, ok bool) {
	q, err := f.Repetition()
	if err != nil {
		return rat.Rat{}, false
	}
	floor = rat.Zero()
	for _, c := range f.g.Channels() {
		if c.Src != c.Dst || c.Cons < 1 {
			continue
		}
		// Each in-flight firing holds Cons tokens (consistency forces
		// Prod == Cons on a self-loop), so at most ⌊t/Cons⌋ overlap.
		lag := int64(c.Initial) / int64(c.Cons)
		if lag < 1 {
			// Zero effective delay: the self-loop deadlocks, which the
			// lint precheck diagnoses; no period exists to bound.
			continue
		}
		work, mulOK := rat.MulChecked(q[c.Src], f.g.Actor(c.Src).Exec)
		if !mulOK {
			return rat.Rat{}, false
		}
		mean, err := rat.New(work, lag)
		if err != nil {
			return rat.Rat{}, false
		}
		if mean.Cmp(floor) > 0 {
			floor = mean
		}
	}
	return floor, true
}

// Rebind returns a fact table for g that starts with the facts of f
// named by keep already computed — the invalidation contract of the
// pass manager: a rule application calls Rebind(after, rule.Preserves)
// and every fact not declared preserved is dropped and recomputed on
// demand against the new graph.
//
// Preserved facts are transferred only when they are both computed in f
// and structurally transferable (FactRepetition requires an unchanged
// actor set; FactRates an unchanged channel list). Callers declare
// preservation; Rebind enforces the length invariants defensively.
func (f *Facts) Rebind(g *sdf.Graph, keep FactSet) *Facts {
	nf := &Facts{g: g}
	f.mu.Lock()
	defer f.mu.Unlock()
	keep &= f.have
	if keep&FactRepetition != 0 && len(f.q) == g.NumActors() {
		nf.q, nf.qErr = f.q, f.qErr
		nf.iterLen, nf.iterOK = f.iterLen, f.iterOK
		nf.have |= FactRepetition
	}
	if keep&FactComponents != 0 {
		nf.comps = f.comps
		nf.have |= FactComponents
	}
	if keep&FactCycles != 0 && len(f.sccSize) == g.NumActors() {
		nf.sccSize, nf.selfLoop = f.sccSize, f.selfLoop
		nf.have |= FactCycles
	}
	if keep&FactRates != 0 && len(f.rateGCD) == g.NumChannels() {
		nf.rateGCD = f.rateGCD
		nf.have |= FactRates
	}
	if keep&FactCost != 0 {
		nf.cost = f.cost
		nf.have |= FactCost
	}
	return nf
}

// seedRepetition installs a repetition vector computed elsewhere (a
// rule application's QAfter, which uniformScale already solved for the
// rewritten graph) so the next fixpoint round does not re-solve the
// balance equations. Ignored unless q matches the actor count and the
// fact is not already present.
func (f *Facts) seedRepetition(q []int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.have&FactRepetition != 0 || len(q) != f.g.NumActors() {
		return
	}
	f.q, f.qErr = q, nil
	f.iterLen, f.iterOK = 0, false
	var sum int64
	ok := true
	for _, v := range q {
		sum, ok = rat.AddChecked(sum, v)
		if !ok {
			break
		}
	}
	if ok {
		f.iterLen, f.iterOK = sum, true
	}
	f.have |= FactRepetition
}

// weakComponents returns the weakly connected components of g as actor
// lists, largest first (ties broken by smallest member id).
func weakComponents(g *sdf.Graph) [][]sdf.ActorID {
	n := g.NumActors()
	adj := make([][]sdf.ActorID, n)
	for _, c := range g.Channels() {
		adj[c.Src] = append(adj[c.Src], c.Dst)
		adj[c.Dst] = append(adj[c.Dst], c.Src)
	}
	seen := make([]bool, n)
	var comps [][]sdf.ActorID
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		comp := []sdf.ActorID{sdf.ActorID(s)}
		seen[s] = true
		for head := 0; head < len(comp); head++ {
			for _, v := range adj[comp[head]] {
				if !seen[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	// Stable size ordering: the first component is the main one.
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && len(comps[j]) > len(comps[j-1]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	return comps
}

// SCC returns a strongly-connected-component id per vertex of the
// directed graph given as adjacency lists (Kosaraju, iterative). Ids
// are assigned in reverse topological order of the condensation, but
// callers should rely only on the partition.
func SCC(n int, adj [][]sdf.ActorID) []int {
	rev := make([][]sdf.ActorID, n)
	for u := 0; u < n; u++ {
		for _, v := range adj[u] {
			rev[v] = append(rev[v], sdf.ActorID(u))
		}
	}
	order := make([]sdf.ActorID, 0, n)
	seen := make([]bool, n)
	type frame struct {
		u sdf.ActorID
		i int
	}
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		stack := []frame{{sdf.ActorID(s), 0}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(adj[f.u]) {
				v := adj[f.u][f.i]
				f.i++
				if !seen[v] {
					seen[v] = true
					stack = append(stack, frame{v, 0})
				}
				continue
			}
			order = append(order, f.u)
			stack = stack[:len(stack)-1]
		}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	id := 0
	for i := len(order) - 1; i >= 0; i-- {
		root := order[i]
		if comp[root] >= 0 {
			continue
		}
		stack := []sdf.ActorID{root}
		comp[root] = id
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range rev[u] {
				if comp[v] < 0 {
					comp[v] = id
					stack = append(stack, v)
				}
			}
		}
		id++
	}
	return comp
}
