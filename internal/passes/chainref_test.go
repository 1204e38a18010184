package passes

import (
	"fmt"

	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// refChainFusionPairwise is the pairwise chain-fusion rule that the
// maximal-chain rule replaced, kept as the reference of the pin test:
// one link a→b per application, so a chain of k actors takes k−1
// fixpoint rounds, each copying the whole graph.
func refChainFusionPairwise(f *Facts) (*Application, error) {
	g := f.Graph()
	qB, err := f.Repetition()
	if err != nil {
		return nil, nil
	}
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
	for _, c := range g.Channels() {
		if c.Src == c.Dst || succ[c.Src] != c.Dst || pred[c.Dst] != c.Src {
			continue
		}
		if app := refFusePair(g, qB, c.Src, c.Dst); app != nil {
			return app, nil
		}
	}
	return nil, nil
}

// refFusePair builds the a→b fusion of the pairwise reference; nil when
// graph construction, the summed execution time or the uniform-scale
// requirement fails.
func refFusePair(g *sdf.Graph, qB []int64, a, b sdf.ActorID) *Application {
	exec, ok := rat.AddChecked(g.Actor(a).Exec, g.Actor(b).Exec)
	if !ok {
		return nil
	}
	out := sdf.NewGraph(g.Name())
	n := g.NumActors()
	actorMap := make([]sdf.ActorID, n)
	for i := 0; i < n; i++ {
		id := sdf.ActorID(i)
		var err error
		switch id {
		case b:
			continue
		case a:
			actorMap[a], err = out.AddActor(g.Actor(a).Name+"+"+g.Actor(b).Name, exec)
		default:
			actorMap[i], err = out.AddActor(g.Actor(id).Name, g.Actor(id).Exec)
		}
		if err != nil {
			return nil
		}
	}
	actorMap[b] = actorMap[a]
	for _, c := range g.Channels() {
		if c.Src == a && c.Dst == b {
			continue
		}
		if _, err := out.AddChannel(actorMap[c.Src], actorMap[c.Dst], c.Prod, c.Cons, c.Initial); err != nil {
			return nil
		}
	}
	if err := out.Validate(); err != nil {
		return nil
	}
	qA, scale, ok := uniformScale(out, qB, actorMap)
	if !ok {
		return nil
	}
	return &Application{
		Before:   g,
		After:    out,
		Scale:    scale,
		ActorMap: actorMap,
		QBefore:  qB,
		QAfter:   qA,
		Note:     fmt.Sprintf("fused chain %s -> %s", g.Actor(a).Name, g.Actor(b).Name),
	}
}

// RefPairwiseRules returns DefaultRules with chain-fusion driven by the
// pairwise reference. It is exported to the external pin test only,
// which needs the lint precheck (and lint imports this package).
func RefPairwiseRules() []Rule {
	rules := DefaultRules()
	for i := range rules {
		if rules[i].Name == verify.RuleChainFusion {
			rules[i].Reduce = refChainFusionPairwise
		}
	}
	return rules
}
