package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/passes"
	"repro/internal/sdf"
)

// shapeSample is how many stream positions the reduction part of the
// shape report covers; the stream hash covers the same prefix, so it
// identifies the stream independently of how far a run got.
const shapeSample = 64

// shape is the workload-shape report of one run: what the generated
// inputs look like, so a claim that a change "helps inputs with property
// X" can quote a measured share.
type shape struct {
	requests       int
	latencySamples int
	tailQ          float64
	reducibleShare float64
	reduceSteps    float64   // mean over the sampled graphs
	sigmaQ         []float64 // Σq of every answer's graph
	cacheHitShare  float64
	itemsPerReq    float64
	nodes          []float64 // sadf automaton nodes of answered models
	streamHash     uint32
	failedShare    float64
}

func workloadShape(ctx context.Context, w *workload, orc *oracle, ph phase, ev *evaluation, before, after snapshot) *shape {
	sh := &shape{
		requests:       len(ph.samples),
		latencySamples: len(ph.samples),
		tailQ:          tailQuantile(len(ph.samples)),
		cacheHitShare:  cacheHitShare(before, after),
		failedShare:    share(float64(ev.failedUnits), float64(ev.units)),
	}
	for i, s := range ph.samples {
		for _, ref := range s.refs {
			if q, ok := orc.sigma[ref]; ok {
				sh.sigmaQ = append(sh.sigmaQ, float64(q))
			}
		}
		if n := ev.outcomes[i].nodes; n > 0 {
			sh.nodes = append(sh.nodes, float64(n))
		}
	}
	sh.itemsPerReq = share(float64(ev.units), float64(len(ph.samples)))

	h := fnv.New32a()
	var graphs []*sdf.Graph
	for i := 0; i < shapeSample; i++ {
		in := w.input(i)
		_, _ = h.Write(in.body)
		if in.model != nil {
			graphs = append(graphs, in.model.Graphs()...)
		} else {
			graphs = append(graphs, in.graphs...)
		}
	}
	sh.streamHash = h.Sum32()
	if len(graphs) > shapeSample {
		graphs = graphs[:shapeSample]
	}
	reducible, steps := 0, 0
	for _, g := range graphs {
		red, err := passes.Reduce(ctx, g, passes.Options{})
		if err == nil && len(red.Steps) > 0 {
			reducible++
			steps += len(red.Steps)
		}
	}
	sh.reducibleShare = share(float64(reducible), float64(len(graphs)))
	sh.reduceSteps = share(float64(steps), float64(len(graphs)))
	return sh
}

// sigmaQ is the iteration length Σq of g (0 when inconsistent).
func sigmaQ(g *sdf.Graph) int64 {
	q, err := g.RepetitionVector()
	if err != nil {
		return 0
	}
	total := int64(0)
	for _, v := range q {
		total += v
	}
	return total
}

func (sh *shape) metrics() map[string]metric {
	return map[string]metric{
		"shape.requests":          {float64(sh.requests), "count"},
		"shape.reducible_share":   {sh.reducibleShare, "share"},
		"shape.reduce_steps_mean": {sh.reduceSteps, "count"},
		"shape.sigma_q_p50":       {quantile(sh.sigmaQ, 0.5), "count"},
		"shape.sigma_q_p90":       {quantile(sh.sigmaQ, 0.9), "count"},
		"shape.sigma_q_max":       {quantile(sh.sigmaQ, 1), "count"},
		"shape.cache_hit_share":   {sh.cacheHitShare, "share"},
		"shape.items_per_request": {sh.itemsPerReq, "count"},
		"shape.sadf_nodes_p50":    {quantile(sh.nodes, 0.5), "count"},
		"shape.sadf_nodes_p90":    {quantile(sh.nodes, 0.9), "count"},
		"shape.sadf_nodes_max":    {quantile(sh.nodes, 1), "count"},
		"shape.stream_hash":       {float64(sh.streamHash), "hash"},
	}
}

// line renders the report as one human-readable line.
func (sh *shape) line(w *workload, ev *evaluation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "shape workload=%s seed=%d stream_hash=%08x requests=%d answers=%d exact=%d failed_share=%.4f",
		w.name, w.seed, sh.streamHash, sh.requests, ev.units, ev.exactUnits, sh.failedShare)
	fmt.Fprintf(&b, " latency_samples=%d tail_percentile=p%.1f", sh.latencySamples, 100*sh.tailQ)
	fmt.Fprintf(&b, " cache_hit_share=%.4f items_per_request=%.1f", sh.cacheHitShare, sh.itemsPerReq)
	fmt.Fprintf(&b, " reducible_share=%.3f reduce_steps_mean=%.2f (first %d graphs)", sh.reducibleShare, sh.reduceSteps, shapeSample)
	fmt.Fprintf(&b, " sigma_q_p50/p90/max=%.0f/%.0f/%.0f", quantile(sh.sigmaQ, 0.5), quantile(sh.sigmaQ, 0.9), quantile(sh.sigmaQ, 1))
	if len(sh.nodes) > 0 {
		fmt.Fprintf(&b, " sadf_nodes_p50/p90/max=%.0f/%.0f/%.0f", quantile(sh.nodes, 0.5), quantile(sh.nodes, 0.9), quantile(sh.nodes, 1))
	}
	return b.String()
}
