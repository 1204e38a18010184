package verify

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sdf"
)

// twoChainCycle is one token-bearing HSDF cycle carrying two fusible
// chains, A1→A2→A3 and B1→B2, separated by the bystander C. Every
// actor has q = 1.
func twoChainCycle() *sdf.Graph {
	g := sdf.NewGraph("two-chains")
	for _, a := range []struct {
		name string
		exec int64
	}{{"A1", 2}, {"A2", 3}, {"A3", 1}, {"C", 4}, {"B1", 5}, {"B2", 1}} {
		g.MustAddActor(a.name, a.exec)
	}
	g.MustAddChannelByName("A1", "A2", 2, 2, 0)
	g.MustAddChannelByName("A2", "A3", 1, 1, 0)
	g.MustAddChannelByName("A3", "C", 1, 1, 1)
	g.MustAddChannelByName("C", "B1", 1, 1, 1)
	g.MustAddChannelByName("B1", "B2", 1, 1, 0)
	g.MustAddChannelByName("B2", "A1", 1, 1, 1)
	return g
}

// forgeChainFusion builds the chain-fusion step that claims chains on g
// without checking one side condition: each fused actor takes its
// head's place and executes for the summed time, the other members
// vanish, and every channel but those from a member to its listed
// successor carries over, mapped. Forged steps are therefore consistent
// in everything except what a tamper case changes.
func forgeChainFusion(t *testing.T, g *sdf.Graph, chains [][]sdf.ActorID) *LiftStep {
	t.Helper()
	head := make(map[sdf.ActorID]int)
	next := make(map[sdf.ActorID]sdf.ActorID)
	member := make(map[sdf.ActorID]bool)
	for k, chain := range chains {
		head[chain[0]] = k
		for i, m := range chain {
			member[m] = true
			if i+1 < len(chain) {
				next[m] = chain[i+1]
			}
		}
	}
	out := sdf.NewGraph(g.Name())
	actorMap := make([]sdf.ActorID, g.NumActors())
	for i, a := range g.Actors() {
		if k, ok := head[sdf.ActorID(i)]; ok {
			names := make([]string, len(chains[k]))
			var exec int64
			for j, m := range chains[k] {
				names[j] = g.Actor(m).Name
				exec += g.Actor(m).Exec
			}
			actorMap[i] = out.MustAddActor(strings.Join(names, "+"), exec)
		} else if !member[sdf.ActorID(i)] {
			actorMap[i] = out.MustAddActor(a.Name, a.Exec)
		}
	}
	for _, chain := range chains {
		for _, m := range chain[1:] {
			actorMap[m] = actorMap[chain[0]]
		}
	}
	for _, c := range g.Channels() {
		if m, ok := next[c.Src]; ok && m == c.Dst {
			continue
		}
		out.MustAddChannel(actorMap[c.Src], actorMap[c.Dst], c.Prod, c.Cons, c.Initial)
	}
	return &LiftStep{
		Rule: RuleChainFusion, Reduced: out, Scale: 1, ActorMap: actorMap,
		QBefore: repetitionOf(t, g), QAfter: repetitionOf(t, out), Chains: chains,
	}
}

// TestChainFusionStepTamperTable: a valid two-chain step checks, and
// every tampered variant is rejected with ErrInvalid by the side
// condition it breaks.
func TestChainFusionStepTamperTable(t *testing.T) {
	const a1, a2, a3, c, b1, b2 = 0, 1, 2, 3, 4, 5
	g := twoChainCycle()
	chains := [][]sdf.ActorID{{a1, a2, a3}, {b1, b2}}
	if err := forgeChainFusion(t, g, chains).Check(ctxT(t), g); err != nil {
		t.Fatalf("valid two-chain step rejected: %v", err)
	}
	withChannel := func(src, dst sdf.ActorID) *sdf.Graph {
		h := g.Clone()
		h.MustAddChannel(src, dst, 1, 1, 1)
		return h
	}
	forge := func(chains [][]sdf.ActorID) func(*sdf.Graph) *LiftStep {
		return func(before *sdf.Graph) *LiftStep { return forgeChainFusion(t, before, chains) }
	}
	cases := []struct {
		name   string
		before *sdf.Graph
		step   func(before *sdf.Graph) *LiftStep
		why    string
	}{
		{"reordered member list", g, forge([][]sdf.ActorID{{a1, a3, a2}, {b1, b2}}), "escaping"},
		{"bystander listed as a member", g, forge([][]sdf.ActorID{{a1, a2, a3, c}, {b1, b2}}), "escaping"},
		{"chain split over two reduced actors", g, func(before *sdf.Graph) *LiftStep {
			s := forgeChainFusion(t, before, [][]sdf.ActorID{{a1, a2}, {b1, b2}})
			s.Chains = chains
			return s
		}, "splits"},
		{"two chains merged onto one reduced actor", g, func(before *sdf.Graph) *LiftStep {
			s := forgeChainFusion(t, before, chains)
			s.ActorMap[b1], s.ActorMap[b2] = s.ActorMap[a1], s.ActorMap[a1]
			return s
		}, "merges"},
		{"member output leaving the chain", withChannel(a2, c), forge(chains), "escaping"},
		{"member input bypassing the chain", withChannel(c, a2), forge(chains), "bypassing"},
		{"fused execution time off by one", g, func(before *sdf.Graph) *LiftStep {
			s := forgeChainFusion(t, before, chains)
			if err := s.Reduced.SetExec(s.ActorMap[a1], 7); err != nil {
				t.Fatal(err)
			}
			return s
		}, "executes for 7, want 6"},
		{"one-member chain", g, func(before *sdf.Graph) *LiftStep {
			s := forgeChainFusion(t, before, chains)
			s.Chains = append(s.Chains, []sdf.ActorID{c})
			return s
		}, "1 member"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.step(tc.before).Check(ctxT(t), tc.before)
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("tampered step accepted or wrongly rejected: %v", err)
			}
			if !strings.Contains(err.Error(), tc.why) {
				t.Errorf("rejected for %q, want the %q side condition", err, tc.why)
			}
		})
	}
}
