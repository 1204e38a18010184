package lint

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/passes"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// chanLabel renders a channel as "Src -> Dst (prod=p cons=c init=d)".
func chanLabel(g *sdf.Graph, c sdf.Channel) string {
	return fmt.Sprintf("%s -> %s (prod=%d cons=%d init=%d)",
		g.Actor(c.Src).Name, g.Actor(c.Dst).Name, c.Prod, c.Cons, c.Initial)
}

// --- consistency -----------------------------------------------------------

// runConsistency reports a graph whose balance equations admit only the
// zero solution. The verdict is the repetition-vector solver's, read off
// the fact table, and its error lists the witnesses: every channel whose
// balance equation conflicts with the rates it propagated over a
// spanning forest (tree channels agree by construction).
//
// The summary's rank of the topology matrix Γ (one row per channel:
// +prod at the source column, −cons at the destination; self-loops
// contribute prod−cons) is derived, not eliminated. A weakly connected
// component C's rows have rank |C|−1 when C is consistent, its
// repetition vector spanning their nullspace, and |C| otherwise (Lee &
// Messerschmitt), so rank(Γ) = n − #consistent components.
func runConsistency(cx *context) []Diagnostic {
	var inc *sdf.InconsistentError
	if !errors.As(cx.qErr, &inc) {
		// Consistent, or the solver overflowed: the overflow pass owns
		// that diagnostic.
		return nil
	}
	g := cx.g
	n := g.NumActors()
	comps := cx.facts.Components()
	compOf := make([]int, n)
	for i, comp := range comps {
		for _, a := range comp {
			compOf[a] = i
		}
	}
	inconsistent := make(map[int]bool)
	for _, id := range inc.Conflicts {
		inconsistent[compOf[g.Channel(id).Src]] = true
	}
	rank := n - (len(comps) - len(inconsistent))
	out := []Diagnostic{{
		Pass: "consistency", Severity: Error,
		Msg: fmt.Sprintf("graph is not consistent: topology matrix has rank %d over %d actors in %d component(s); the balance equations admit only the zero solution",
			rank, n, len(comps)),
		Fix: "adjust the rates of the channels reported below until every cycle's rate product is balanced",
	}}
	for _, id := range inc.Conflicts {
		out = append(out, Diagnostic{
			Pass: "consistency", Severity: Error,
			Channel: chanLabel(g, g.Channel(id)),
			Msg:     "balance equation q(src)·prod = q(dst)·cons conflicts with the rates implied by the rest of the graph",
			Fix:     "change prod/cons on this channel (or on the conflicting path) so the cycle's rate product is 1",
		})
	}
	return out
}

// --- deadlock --------------------------------------------------------------

// runDeadlock performs the structural liveness precheck: a directed cycle
// on which *every* channel holds fewer initial tokens than its
// consumption rate can never fire any of its actors (the first firing on
// the cycle would need a predecessor firing first), so the graph
// deadlocks. The check is sound but not complete — multirate token
// accumulation can deadlock without such a cycle — which is exactly what
// makes it a cheap precheck rather than a full schedule construction.
//
// Implementation: strongly connected components of the subgraph of
// token-insufficient channels (Initial < Cons); any SCC that contains one
// of its channels is a witness cycle.
func runDeadlock(cx *context) []Diagnostic {
	g := cx.g
	n := g.NumActors()
	if n == 0 {
		return nil
	}
	insufficient := func(c sdf.Channel) bool { return c.Initial < c.Cons }
	adj := make([][]sdf.ActorID, n)
	for _, c := range g.Channels() {
		if insufficient(c) && c.Src != c.Dst {
			adj[c.Src] = append(adj[c.Src], c.Dst)
		}
	}
	// The SCCs of the token-insufficient subgraph, not of the graph
	// itself, so this cannot come from the shared cycle fact.
	comp := passes.SCC(n, adj)
	var out []Diagnostic
	// Self-loops first: an actor whose self-loop cannot enable its first
	// firing is permanently blocked, the smallest deadlock cycle.
	for _, id := range g.SelfLoops() {
		c := g.Channel(id)
		if insufficient(c) {
			out = append(out, Diagnostic{
				Pass: "deadlock", Severity: Error,
				Actor:   g.Actor(c.Src).Name,
				Channel: chanLabel(g, c),
				Msg:     fmt.Sprintf("self-loop holds %d initial tokens but each firing consumes %d: the actor can never fire", c.Initial, c.Cons),
				Fix:     fmt.Sprintf("give the self-loop at least %d initial tokens", c.Cons),
			})
		}
	}
	// Multi-actor SCCs in the insufficient subgraph.
	members := make(map[int][]sdf.ActorID)
	for a := 0; a < n; a++ {
		members[comp[a]] = append(members[comp[a]], sdf.ActorID(a))
	}
	keys := make([]int, 0, len(members))
	for k := range members {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		ms := members[k]
		if len(ms) < 2 {
			continue
		}
		names := make([]string, 0, len(ms))
		for _, a := range ms {
			names = append(names, g.Actor(a).Name)
		}
		sort.Strings(names)
		shown := names
		if len(shown) > 8 {
			shown = append(append([]string(nil), shown[:8]...), fmt.Sprintf("… %d more", len(names)-8))
		}
		out = append(out, Diagnostic{
			Pass: "deadlock", Severity: Error,
			Msg: fmt.Sprintf("cycle through {%s} is token-insufficient on every channel (initial < cons everywhere): no actor on it can ever fire",
				strings.Join(shown, ", ")),
			Fix: "add initial tokens to at least one channel of the cycle (enough to cover its consumption rate)",
		})
	}
	return out
}

// --- overflow --------------------------------------------------------------

// Bounds for the overflow pass. The traditional conversion materialises
// one actor per firing, so an iteration length beyond int32 breaks its
// indexing on 32-bit platforms (and beyond ~1M it is merely hopeless);
// max-plus time stamps are int64 and a single iteration already reaches
// Σ q(a)·exec(a) in the worst case.
const (
	overflowHardIterBound = math.MaxInt32
	overflowSoftIterBound = 1 << 20
)

// runOverflow bounds the magnitudes the downstream algorithms will
// manipulate: the iteration length Σq (the traditional conversion's actor
// count and the unfolding's index space), per-channel token traffic
// q(src)·prod, and the worst-case iteration makespan Σ q(a)·exec(a)
// (max-plus stamps). All arithmetic is overflow-checked; anything that
// cannot even be computed in int64 is an error, anything beyond the int32
// indexing range a warning.
func runOverflow(cx *context) []Diagnostic {
	if cx.qErr != nil {
		if errors.Is(cx.qErr, rat.ErrOverflow) {
			return []Diagnostic{{
				Pass: "overflow", Severity: Error,
				Msg: "repetition vector overflows int64 while solving the balance equations: the rate ratios compound beyond machine integers",
				Fix: "reduce the rate ratios along long chains; coprime rates multiply into the repetition vector",
			}}
		}
		// Inconsistent: the consistency pass reports the conflicts, this
		// one the channels whose rates overflowed past them.
		var inc *sdf.InconsistentError
		if !errors.As(cx.qErr, &inc) {
			return nil
		}
		var out []Diagnostic
		for _, id := range inc.Overflows {
			out = append(out, Diagnostic{
				Pass: "overflow", Severity: Error,
				Channel: chanLabel(cx.g, cx.g.Channel(id)),
				Msg:     "the firing rate propagated across this channel overflows int64: the rate ratios compound beyond machine integers",
				Fix:     "reduce the rate ratios along long chains; coprime rates multiply into the repetition vector",
			})
		}
		return out
	}
	g := cx.g
	q := cx.q
	var out []Diagnostic
	iterLen, iterOK := cx.facts.IterationLength()
	switch {
	case !iterOK:
		out = append(out, Diagnostic{
			Pass: "overflow", Severity: Error,
			Msg: "iteration length Σq overflows int64: no iteration-based analysis (scheduling, traditional conversion, simulation) can run",
			Fix: "reduce the rate ratios; coprime rates multiply into the repetition vector",
		})
	case iterLen > overflowHardIterBound:
		out = append(out, Diagnostic{
			Pass: "overflow", Severity: Warning,
			Msg: fmt.Sprintf("iteration length %d exceeds int32: the traditional conversion would allocate that many actors and break 32-bit indexing", iterLen),
			Fix: "use the symbolic conversion (size N(N+2) in the token count) or abstract the graph first",
		})
	case iterLen > overflowSoftIterBound:
		out = append(out, Diagnostic{
			Pass: "overflow", Severity: Info,
			Msg: fmt.Sprintf("iteration length %d: the traditional SDF→HSDF conversion will materialise %d actors", iterLen, iterLen),
			Fix: "prefer the symbolic conversion or the abstraction for this graph",
		})
	}
	for i, c := range g.Channels() {
		traffic, ok := rat.MulChecked(q[c.Src], int64(c.Prod))
		if !ok || traffic > overflowHardIterBound {
			d := Diagnostic{
				Pass: "overflow", Severity: Warning,
				Channel: chanLabel(g, g.Channel(sdf.ChannelID(i))),
				Fix:     "lower the channel's rates or the repetition counts feeding it",
			}
			if !ok {
				d.Severity = Error
				d.Msg = "per-iteration token traffic q(src)·prod overflows int64"
			} else {
				d.Msg = fmt.Sprintf("per-iteration token traffic %d exceeds int32; buffer accounting may overflow machine ints", traffic)
			}
			out = append(out, d)
		}
	}
	var makespan int64
	for a, v := range q {
		work, ok := rat.MulChecked(v, g.Actor(sdf.ActorID(a)).Exec)
		if ok {
			makespan, ok = rat.AddChecked(makespan, work)
		}
		if !ok {
			out = append(out, Diagnostic{
				Pass: "overflow", Severity: Error,
				Actor: g.Actor(sdf.ActorID(a)).Name,
				Msg:   "worst-case iteration makespan Σ q·exec overflows int64: max-plus time stamps would wrap",
				Fix:   "rescale execution times to a coarser time unit",
			})
			break
		}
	}
	return out
}

// --- connectivity ----------------------------------------------------------

// runConnectivity reports disconnected structure: isolated actors (no
// channels at all) and secondary weakly connected components. Both are
// legal SDF but almost always modelling accidents, and the reduction
// algorithms assume a connected input.
func runConnectivity(cx *context) []Diagnostic {
	g := cx.g
	if g.NumActors() == 0 {
		return []Diagnostic{{
			Pass: "connectivity", Severity: Warning,
			Msg: "graph has no actors",
		}}
	}
	degree := make([]int, g.NumActors())
	for _, c := range g.Channels() {
		degree[c.Src]++
		degree[c.Dst]++
	}
	var out []Diagnostic
	for a, d := range degree {
		if d == 0 {
			out = append(out, Diagnostic{
				Pass: "connectivity", Severity: Warning,
				Actor: g.Actor(sdf.ActorID(a)).Name,
				Msg:   "actor has no channels: it is unconstrained and fires infinitely often in self-timed execution",
				Fix:   "connect the actor or remove it from the model",
			})
		}
	}
	comps := cx.facts.Components()
	for _, comp := range comps[1:] {
		if len(comp) == 1 && degree[comp[0]] == 0 {
			continue // already reported as isolated
		}
		names := make([]string, 0, len(comp))
		for _, a := range comp {
			names = append(names, g.Actor(a).Name)
		}
		sort.Strings(names)
		shown := names
		if len(shown) > 8 {
			shown = append(append([]string(nil), shown[:8]...), fmt.Sprintf("… %d more", len(names)-8))
		}
		out = append(out, Diagnostic{
			Pass: "connectivity", Severity: Warning,
			Msg: fmt.Sprintf("actors {%s} are disconnected from the main component; throughput and the reductions are per-component",
				strings.Join(shown, ", ")),
			Fix: "analyse the components separately or connect them",
		})
	}
	return out
}

// --- rates (degenerate) ----------------------------------------------------

// coprimeBlowupBound flags channels whose coprime rates multiply the
// repetition vector: prod·cons beyond this with gcd 1 is almost always a
// rate-specification mistake rather than a real 1000:999-style converter.
const coprimeBlowupBound = 1 << 16

// runRates flags degenerate rate/delay patterns that are legal but almost
// always wrong: self-loops that permit multiple concurrent firings
// (auto-concurrency guards carry exactly one token), self-loops whose
// rates differ (always inconsistent), zero-time actors, and coprime rate
// pairs large enough to explode the repetition vector.
func runRates(cx *context) []Diagnostic {
	g := cx.g
	var out []Diagnostic
	for _, c := range g.Channels() {
		if c.Src == c.Dst {
			if c.Prod != c.Cons {
				out = append(out, Diagnostic{
					Pass: "rates", Severity: Error,
					Actor: g.Actor(c.Src).Name, Channel: chanLabel(g, c),
					Msg: "self-loop with prod ≠ cons makes the balance equations unsolvable for this actor",
					Fix: "use equal production and consumption rates on self-loops",
				})
			} else if c.Initial >= 2*c.Cons && c.Cons > 0 {
				out = append(out, Diagnostic{
					Pass: "rates", Severity: Info,
					Actor: g.Actor(c.Src).Name, Channel: chanLabel(g, c),
					Msg: fmt.Sprintf("self-loop allows %d concurrent firings; auto-concurrency guards usually carry exactly cons tokens", c.Initial/c.Cons),
				})
			}
			continue
		}
		// A product past int64 is past the bound too.
		p, ok := rat.MulChecked(int64(c.Prod), int64(c.Cons))
		if c.Prod > 1 && c.Cons > 1 && gcdInt(c.Prod, c.Cons) == 1 && (!ok || p > coprimeBlowupBound) {
			out = append(out, Diagnostic{
				Pass: "rates", Severity: Warning,
				Channel: chanLabel(g, c),
				Msg:     fmt.Sprintf("coprime rates %d:%d multiply the repetition vector by their product; verify they are intended", c.Prod, c.Cons),
			})
		}
	}
	for a := 0; a < g.NumActors(); a++ {
		if g.Actor(sdf.ActorID(a)).Exec == 0 {
			out = append(out, Diagnostic{
				Pass: "rates", Severity: Info,
				Actor: g.Actor(sdf.ActorID(a)).Name,
				Msg:   "actor has execution time 0: it fires in zero time and never constrains throughput",
			})
		}
	}
	return out
}

func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
