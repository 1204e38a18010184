package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/csdf"
	"repro/internal/passes"
	"repro/internal/sdf"
)

// AnalyzeCSDF runs the subset of the passes that transfer to cyclo-static
// graphs: consistency of the cycle-total balance equations, the
// structural deadlock precheck (a cycle whose every channel holds fewer
// initial tokens than its destination's first-phase consumption blocks
// all of its actors), connectivity, and degenerate-phase anomalies
// (actors whose every phase takes zero time, channels that move no
// tokens in some direction are already rejected at construction).
func AnalyzeCSDF(g *csdf.Graph) *Report {
	rep := &Report{Graph: g.Name(), Diagnostics: []Diagnostic{}}
	rep.Diagnostics = append(rep.Diagnostics, csdfConsistency(g)...)
	rep.Diagnostics = append(rep.Diagnostics, csdfDeadlock(g)...)
	rep.Diagnostics = append(rep.Diagnostics, csdfConnectivity(g)...)
	rep.Diagnostics = append(rep.Diagnostics, csdfPhases(g)...)
	return rep
}

func csdfChanLabel(g *csdf.Graph, c csdf.Channel) string {
	return fmt.Sprintf("%s -> %s (init=%d)", g.Actor(c.Src).Name, g.Actor(c.Dst).Name, c.Initial)
}

func csdfConsistency(g *csdf.Graph) []Diagnostic {
	if _, err := g.RepetitionVector(); err != nil {
		return []Diagnostic{{
			Pass: "consistency", Severity: Error,
			Msg: fmt.Sprintf("cycle-total balance equations are unsolvable: %v", err),
			Fix: "balance the per-cycle token totals Σprod and Σcons along every cycle",
		}}
	}
	return nil
}

// csdfDeadlock mirrors the SDF structural precheck with the first-phase
// consumption as the enabling requirement: destination phase 0 is the
// first firing a fresh channel must enable.
func csdfDeadlock(g *csdf.Graph) []Diagnostic {
	n := g.NumActors()
	if n == 0 {
		return nil
	}
	insufficient := func(c csdf.Channel) bool {
		return len(c.Cons) > 0 && c.Cons[0] > 0 && c.Initial < c.Cons[0]
	}
	adj := make([][]sdf.ActorID, n)
	var out []Diagnostic
	for _, c := range g.Channels() {
		if !insufficient(c) {
			continue
		}
		if c.Src == c.Dst {
			out = append(out, Diagnostic{
				Pass: "deadlock", Severity: Error,
				Actor:   g.Actor(c.Src).Name,
				Channel: csdfChanLabel(g, c),
				Msg:     fmt.Sprintf("self-loop holds %d initial tokens but phase 0 consumes %d: the actor can never start", c.Initial, c.Cons[0]),
				Fix:     fmt.Sprintf("give the self-loop at least %d initial tokens", c.Cons[0]),
			})
			continue
		}
		adj[c.Src] = append(adj[c.Src], sdf.ActorID(c.Dst))
	}
	comp := passes.SCC(n, adj)
	members := make(map[int][]int)
	for a := 0; a < n; a++ {
		members[comp[a]] = append(members[comp[a]], a)
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
			names = append(names, g.Actor(csdf.ActorID(a)).Name)
		}
		sort.Strings(names)
		out = append(out, Diagnostic{
			Pass: "deadlock", Severity: Error,
			Msg: fmt.Sprintf("cycle through {%s} cannot enable any first-phase firing (initial < cons[0] everywhere)",
				strings.Join(names, ", ")),
			Fix: "add initial tokens to at least one channel of the cycle",
		})
	}
	return out
}

func csdfConnectivity(g *csdf.Graph) []Diagnostic {
	n := g.NumActors()
	if n == 0 {
		return []Diagnostic{{Pass: "connectivity", Severity: Warning, Msg: "graph has no actors"}}
	}
	degree := make([]int, n)
	for _, c := range g.Channels() {
		degree[c.Src]++
		degree[c.Dst]++
	}
	var out []Diagnostic
	for a, d := range degree {
		if d == 0 {
			out = append(out, Diagnostic{
				Pass: "connectivity", Severity: Warning,
				Actor: g.Actor(csdf.ActorID(a)).Name,
				Msg:   "actor has no channels",
				Fix:   "connect the actor or remove it from the model",
			})
		}
	}
	return out
}

func csdfPhases(g *csdf.Graph) []Diagnostic {
	var out []Diagnostic
	for a := 0; a < g.NumActors(); a++ {
		actor := g.Actor(csdf.ActorID(a))
		allZero := true
		for _, e := range actor.Exec {
			if e != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			out = append(out, Diagnostic{
				Pass: "rates", Severity: Info,
				Actor: actor.Name,
				Msg:   fmt.Sprintf("all %d phases take zero time: the actor never constrains throughput", actor.Phases()),
			})
		}
	}
	return out
}
