package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/sadf"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/serve"
	"repro/internal/verify"
)

// Replay sizes: the traced replay covers the first inputs of the stream,
// the same inputs the untraced run started with. Two blocks of the
// single-graph stream, one batch, two blocks of sadf models.
const (
	replaySingle = 2 * blockSize
	replayBatch  = 1
	replaySADF   = 16
	// replayCap stops the replay early on a machine too slow to finish
	// it in reasonable time; the counts then cover fewer inputs.
	replayCap = 60 * time.Second
	// engineTimeout bounds each single-engine run of the replay. The
	// served race cancels its losers; run alone, the state-space engine
	// can burn its whole deadline, and runs past this count as failed.
	engineTimeout = 500 * time.Millisecond
	// hedgedTimeout is the serving layer's default request deadline,
	// which the served hedged race runs under.
	hedgedTimeout = 5 * time.Second
)

// layerNames are the per-layer timings, each reported as a median with
// its p90 in microseconds. Every name is always reported; a layer the
// workload does not exercise reads 0.
var layerNames = []string{
	"sdfio.parse_us", "serve.decode_us", "serve.key_us", "lint.precheck_us",
	"passes.reduce_us", "passes.liftcert_us", "core.symbolic_us", "maxplus.eigenvalue_us",
	"analysis.matrix_us", "analysis.hsdf_us", "analysis.statespace_us", "analysis.hedged_us",
	"analysis.bounded_us", "verify.throughput_check_us", "verify.lifted_check_us",
	"verify.sadf_check_us", "sadf.analyze_us", "serve.analyze_us",
}

// engines are the served race's engines with their timing metrics.
var engines = []struct {
	method analysis.Method
	metric string
}{
	{analysis.Matrix, "analysis.matrix_us"},
	{analysis.StateSpace, "analysis.statespace_us"},
	{analysis.HSDF, "analysis.hsdf_us"},
}

// replay collects one traced replay's observations.
type replay struct {
	times map[string][]float64 // layer name -> microseconds per call
	// counts
	graphs, steps                int
	sizeRatio                    []float64
	statespaceRuns, statespaceOK int
	hedgeWait                    []float64
	nodes                        []float64
}

func (r *replay) timed(name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.times[name] = append(r.times[name], micros(d))
	return d
}

// replayLayers times each layer of the serving path from outside, by
// calling its public functions on the workload's first inputs.
func replayLayers(ctx context.Context, w *workload) (map[string]metric, error) {
	reg := obs.New()
	reg.EnableEvents(256)
	srv := serve.New(serve.Options{Obs: reg})
	defer srv.Close()
	r := &replay{times: map[string][]float64{}}
	deadline := time.Now().Add(replayCap)
	n := map[string]int{"batch-cold": replayBatch, "sadf-cold": replaySADF}[w.name]
	if n == 0 {
		n = replaySingle
	}
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		in := w.input(i)
		var err error
		switch in.path {
		case pathThroughput:
			err = r.single(ctx, srv, in, w.warm)
		case pathBatch:
			err = r.batch(ctx, srv, in)
		case pathSADF:
			err = r.sadf(ctx, srv, in)
		}
		if err != nil {
			return nil, fmt.Errorf("replay input %d: %w", i, err)
		}
	}
	if w.name != "sadf-cold" {
		if err := r.stallProbe(ctx, w); err != nil {
			return nil, err
		}
	}
	m := map[string]metric{}
	m["analysis.stall_case_hedged_us"] = metric{mean(r.times["stall"]), "us"}
	for _, name := range layerNames {
		putTiming(m, name, r.times[name])
	}
	m["passes.reduce_steps"] = metric{share(float64(r.steps), float64(r.graphs)), "count"}
	m["passes.reduced_size_ratio"] = metric{mean(r.sizeRatio), "share"}
	m["analysis.statespace_failed_share"] = metric{share(float64(r.statespaceRuns-r.statespaceOK), float64(r.statespaceRuns)), "share"}
	m["analysis.hedge_wait_ratio"] = metric{quantile(r.hedgeWait, 0.5), "ratio"}
	m["analysis.hedge_wait_ratio.p90"] = metric{quantile(r.hedgeWait, 0.9), "ratio"}
	m["sadf.automaton_nodes"] = metric{quantile(r.nodes, 0.5), "count"}
	return m, nil
}

func (r *replay) single(ctx context.Context, srv *serve.Server, in *input, warm bool) error {
	var p serve.RequestPayload
	if err := json.Unmarshal(in.body, &p); err != nil {
		return err
	}
	if err := r.parse(p); err != nil {
		return err
	}
	var req *serve.Request
	var err error
	r.timed("serve.decode_us", func() { req, err = serve.DecodeRequest(in.body) })
	if err != nil {
		return err
	}
	r.timed("serve.key_us", func() { _ = req.Key() })
	if err := r.graphLayers(ctx, req.Graph); err != nil {
		return err
	}
	if warm {
		// The served path answers single-warm from the cache: fill it,
		// then time the hit.
		if _, err := srv.Analyze(ctx, req); err != nil {
			return err
		}
	}
	r.timed("serve.analyze_us", func() { _, err = srv.Analyze(ctx, req) })
	return err
}

func (r *replay) batch(ctx context.Context, srv *serve.Server, in *input) error {
	var breq *serve.BatchRequest
	var err error
	r.timed("serve.decode_us", func() { breq, err = serve.DecodeBatchRequest(in.body) })
	if err != nil {
		return err
	}
	for _, it := range breq.Items {
		if it.Err != nil {
			return it.Err
		}
		if err := r.parse(it.Payload); err != nil {
			return err
		}
		r.timed("serve.key_us", func() { _ = it.Req.Key() })
		if err := r.graphLayers(ctx, it.Req.Graph); err != nil {
			return err
		}
	}
	r.timed("serve.analyze_us", func() { _, err = srv.AnalyzeBatch(ctx, breq) })
	return err
}

// parse times the graph parser the payload's wire form selects.
func (r *replay) parse(p serve.RequestPayload) error {
	var err error
	r.timed("sdfio.parse_us", func() {
		if p.GraphText != "" {
			_, err = sdfio.ParseText(p.GraphText)
		} else {
			_, err = sdfio.ReadJSON(bytes.NewReader(p.Graph))
		}
	})
	return err
}

// graphLayers times the per-graph layers below the serving layer:
// precheck, the reduction fixpoint, the symbolic iteration and the
// eigenvalue, each certified engine alone on the reduced graph, the
// hedged race, the bounded brownout engine, and the certificate checks
// and the lift back to the original graph.
func (r *replay) graphLayers(ctx context.Context, g *sdf.Graph) error {
	r.graphs++
	var err error
	r.timed("lint.precheck_us", func() { err = lint.PrecheckWith(passes.NewFacts(g)) })
	if err != nil {
		return err
	}
	var red *passes.Reduction
	r.timed("passes.reduce_us", func() { red, err = passes.Reduce(ctx, g, passes.Options{}) })
	if err != nil {
		return err
	}
	target := g
	if len(red.Steps) > 0 {
		target = red.Final
		r.steps += len(red.Steps)
	}
	r.sizeRatio = append(r.sizeRatio, float64(target.NumActors()+target.NumChannels())/float64(g.NumActors()+g.NumChannels()))

	if err := r.symbolic(ctx, target); err != nil {
		return err
	}

	fastest := time.Duration(0)
	var cert *verify.ThroughputCert
	for _, e := range engines {
		ectx, cancel := context.WithTimeout(ctx, engineTimeout)
		t0 := time.Now()
		_, c, err := analysis.ComputeThroughputCertified(ectx, target, e.method)
		d := time.Since(t0)
		cancel()
		if e.method == analysis.StateSpace {
			r.statespaceRuns++
		}
		if err != nil {
			if e.method == analysis.Matrix {
				return fmt.Errorf("matrix engine on %s: %w", target.Name(), err)
			}
			continue
		}
		switch e.method {
		case analysis.Matrix:
			cert = c
		case analysis.StateSpace:
			r.statespaceOK++
		}
		r.times[e.metric] = append(r.times[e.metric], micros(d))
		if fastest == 0 || d < fastest {
			fastest = d
		}
	}

	hctx, cancel := context.WithTimeout(ctx, hedgedTimeout)
	hedged := r.timed("analysis.hedged_us", func() { _, _, err = analysis.ComputeThroughputHedgedOpts(hctx, target, analysis.HedgeOptions{}) })
	cancel()
	if err != nil {
		return fmt.Errorf("hedged race on %s: %w", target.Name(), err)
	}
	r.hedgeWait = append(r.hedgeWait, float64(hedged)/float64(fastest))

	r.timed("analysis.bounded_us", func() { _, _, err = analysis.ComputeThroughputBounded(ctx, g, analysis.BoundedOptions{}) })
	if err != nil {
		return fmt.Errorf("bounded engine on %s: %w", g.Name(), err)
	}
	r.timed("verify.throughput_check_us", func() { err = cert.Check(ctx, target) })
	if err != nil {
		return err
	}
	if len(red.Steps) == 0 {
		return nil
	}
	var lifted *verify.ReductionCert
	r.timed("passes.liftcert_us", func() { lifted, err = red.LiftCert(cert) })
	if err != nil {
		return err
	}
	r.timed("verify.lifted_check_us", func() { err = lifted.Check(ctx, g) })
	return err
}

// stallProbes is how many seeded variants of stallCase the replay races.
// Whether a race stalls varies from run to run, so the metric is their
// mean: the stall's expected cost.
const stallProbes = 4

// stallProbe times the served hedged race on stallCase, the graph the
// streams leave out (see stallCase), with seeded execution-time shifts.
func (r *replay) stallProbe(ctx context.Context, w *workload) error {
	for k := 0; k < stallProbes; k++ {
		rng := w.rng(8, k)
		g := benchmarks.MP3Playback()
		for id, a := range g.Actors() {
			_ = g.SetExec(sdf.ActorID(id), a.Exec+rng.Int63n(4))
		}
		hctx, cancel := context.WithTimeout(ctx, hedgedTimeout)
		var err error
		r.timed("stall", func() { _, _, err = analysis.ComputeThroughputHedgedOpts(hctx, g, analysis.HedgeOptions{}) })
		cancel()
		if err != nil {
			return fmt.Errorf("hedged race on %s: %w", stallCase, err)
		}
	}
	return nil
}

// symbolic times the symbolic iteration and the max-plus eigenvalue of
// its matrix.
func (r *replay) symbolic(ctx context.Context, g *sdf.Graph) error {
	var res *core.SymbolicResult
	var err error
	r.timed("core.symbolic_us", func() { res, err = core.SymbolicIterationCtx(ctx, g) })
	if err != nil {
		return fmt.Errorf("symbolic iteration of %s: %w", g.Name(), err)
	}
	r.timed("maxplus.eigenvalue_us", func() { _, _, err = res.Matrix.EigenvalueCtx(ctx) })
	return err
}

func (r *replay) sadf(ctx context.Context, srv *serve.Server, in *input) error {
	var p serve.SADFRequestPayload
	if err := json.Unmarshal(in.body, &p); err != nil {
		return err
	}
	var err error
	r.timed("sdfio.parse_us", func() {
		if p.ModelText != "" {
			_, err = sdfio.ParseSADFText(p.ModelText)
		} else {
			_, err = sdfio.ReadSADFJSON(bytes.NewReader(p.Model))
		}
	})
	if err != nil {
		return err
	}
	var req *serve.SADFRequest
	r.timed("serve.decode_us", func() { req, err = serve.DecodeSADFRequest(in.body) })
	if err != nil {
		return err
	}
	r.timed("serve.key_us", func() { _ = req.Key() })
	m := req.Model
	for _, g := range m.Graphs() {
		r.timed("lint.precheck_us", func() { err = lint.PrecheckWith(passes.NewFacts(g)) })
		if err != nil {
			return err
		}
		if err := r.symbolic(ctx, g); err != nil {
			return err
		}
	}
	var res *sadf.Result
	var cert *verify.SADFCert
	r.timed("sadf.analyze_us", func() { res, cert, err = sadf.Analyze(ctx, m) })
	if err != nil {
		return err
	}
	r.nodes = append(r.nodes, float64(res.AutomatonNodes))
	r.timed("verify.sadf_check_us", func() { err = cert.Check(ctx, m.Graphs()) })
	if err != nil {
		return err
	}
	r.timed("serve.analyze_us", func() { _, err = srv.AnalyzeSADF(ctx, req) })
	return err
}
