package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/guard"
	"repro/internal/rat"
	"repro/internal/sadf"
	"repro/internal/sdf"
	"repro/internal/serve"
)

// reference is the oracle's answer for one graph or model.
type reference struct {
	unbounded bool
	period    rat.Rat
}

func (r reference) String() string {
	if r.unbounded {
		return "unbounded"
	}
	return r.period.String()
}

// referenceTimeout bounds one reference computation; every generated
// input is far below it.
const referenceTimeout = 20 * time.Second

// referenceHSDFActors is the oracle's HSDF budget: the traditional
// conversion is cross-checked only on graphs whose iteration length Σq
// (the HSDF actor count) fits it. Larger conversions cost seconds (mp3
// playback: 10601 actors, about 1.8s) and would dominate the run.
const referenceHSDFActors = 4096

// graphReference computes the reference period of g from the unreduced
// graph by direct engines: the matrix engine and the HSDF engine must
// agree; when HSDF does not fit the oracle's budget, the matrix answer
// stands only with its exact throughput certificate checked.
func graphReference(ctx context.Context, g *sdf.Graph) (reference, error) {
	ctx, cancel := context.WithTimeout(ctx, referenceTimeout)
	defer cancel()
	mtp, err := analysis.ComputeThroughputDirectCtx(ctx, g, analysis.Matrix)
	if err != nil {
		return reference{}, fmt.Errorf("reference %s: matrix: %w", g.Name(), err)
	}
	ref := reference{unbounded: mtp.Unbounded, period: mtp.Period}
	budget := guard.Default()
	budget.MaxHSDFActors = referenceHSDFActors
	htp, herr := analysis.ComputeThroughputDirectCtx(guard.WithBudget(ctx, budget), g, analysis.HSDF)
	if herr == nil {
		if htp.Unbounded != mtp.Unbounded || (!mtp.Unbounded && htp.Period.Cmp(mtp.Period) != 0) {
			return reference{}, fmt.Errorf("reference %s: matrix says %v, hsdf says %v", g.Name(), ref,
				reference{unbounded: htp.Unbounded, period: htp.Period})
		}
		return ref, nil
	}
	ctp, cert, err := analysis.ComputeThroughputCertified(ctx, g, analysis.Matrix)
	if err != nil {
		return reference{}, fmt.Errorf("reference %s: hsdf: %v; certified matrix: %w", g.Name(), herr, err)
	}
	if err := cert.Check(ctx, g); err != nil {
		return reference{}, fmt.Errorf("reference %s: certificate: %w", g.Name(), err)
	}
	if ctp.Unbounded != mtp.Unbounded || (!mtp.Unbounded && ctp.Period.Cmp(mtp.Period) != 0) {
		return reference{}, fmt.Errorf("reference %s: certified matrix disagrees with direct matrix", g.Name())
	}
	return ref, nil
}

// modelReference computes the reference worst-case period of an
// FSM-SADF model in process and checks its certificate.
func modelReference(ctx context.Context, m *sadf.Model) (reference, error) {
	ctx, cancel := context.WithTimeout(ctx, referenceTimeout)
	defer cancel()
	res, cert, err := sadf.Analyze(ctx, m)
	if err != nil {
		return reference{}, fmt.Errorf("reference %s: %w", m.Name, err)
	}
	if err := cert.Check(ctx, m.Graphs()); err != nil {
		return reference{}, fmt.Errorf("reference %s: certificate: %w", m.Name, err)
	}
	return reference{unbounded: res.Unbounded, period: res.Period}, nil
}

// verdict classifies one answer against its reference.
type verdict int

const (
	// exact: verified, full fidelity, equal to the reference.
	exact verdict = iota
	// degraded: a bounded or stale answer that is consistent with the
	// reference (a bound encloses it, a stale period equals it).
	degraded
	// failed: an error, a refusal, or an answer the reference refutes.
	failed
)

// answer is what the oracle judges of one answer: the client decodes it
// on receipt and keeps only these fields.
type answer struct {
	present     bool   // an answer (or batch entry) came back
	itemErr     string // a batch entry's error, when the item failed
	verified    bool
	degradation string
	unbounded   bool
	periodNum   int64
	periodDen   int64
	lowerNum    int64
	lowerDen    int64
	nodes       int  // sadf automaton nodes
	hasCert     bool // a sadf wire certificate came with it
}

func answerOf(p *serve.ResultPayload) answer {
	return answer{present: true, verified: p.Verified, degradation: p.Degradation, unbounded: p.Unbounded,
		periodNum: p.PeriodNum, periodDen: p.PeriodDen, lowerNum: p.PeriodLowerNum, lowerDen: p.PeriodLowerDen}
}

func sadfAnswerOf(p *serve.SADFResultPayload) answer {
	return answer{present: true, verified: p.Verified, degradation: p.Degradation, unbounded: p.Unbounded,
		periodNum: p.PeriodNum, periodDen: p.PeriodDen, lowerNum: p.PeriodLowerNum, lowerDen: p.PeriodLowerDen,
		nodes: p.AutomatonNodes, hasCert: p.Cert != nil}
}

// decodeAnswers reads a 200 answer to a request on path with n answers.
func decodeAnswers(path string, n int, body []byte) ([]answer, error) {
	switch path {
	case pathBatch:
		var p serve.BatchResultPayload
		if err := json.Unmarshal(body, &p); err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		out := make([]answer, n)
		for _, it := range p.Items {
			if it.Index < 0 || it.Index >= n {
				return nil, fmt.Errorf("batch entry index %d out of range", it.Index)
			}
			switch {
			case it.Result != nil:
				out[it.Index] = answerOf(it.Result)
			case it.Error != nil:
				out[it.Index] = answer{present: true, itemErr: it.Error.Kind + ": " + it.Error.Error}
			default:
				out[it.Index] = answer{present: true, itemErr: it.Status}
			}
		}
		return out, nil
	case pathSADF:
		var p serve.SADFResultPayload
		if err := json.Unmarshal(body, &p); err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		return []answer{sadfAnswerOf(&p)}, nil
	default:
		var p serve.ResultPayload
		if err := json.Unmarshal(body, &p); err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		return []answer{answerOf(&p)}, nil
	}
}

// judge checks an answer against the reference: an exact answer must
// equal it, a bounded answer must enclose it (period_lower ≤ ref ≤
// period), a stale answer must equal it.
func judge(a answer, ref reference) (verdict, error) {
	if a.unbounded || ref.unbounded {
		if a.unbounded != ref.unbounded {
			return failed, fmt.Errorf("answer unbounded=%v, reference %v", a.unbounded, ref)
		}
		if a.degradation == "" {
			return exact, nil
		}
		return degraded, nil
	}
	period, err := rat.New(a.periodNum, a.periodDen)
	if err != nil {
		return failed, fmt.Errorf("answer period %d/%d: %w", a.periodNum, a.periodDen, err)
	}
	if a.degradation == "bounded" {
		if period.Cmp(ref.period) < 0 {
			return failed, fmt.Errorf("bound %v is below the reference %v", period, ref)
		}
		if a.lowerDen != 0 {
			lower, err := rat.New(a.lowerNum, a.lowerDen)
			if err != nil {
				return failed, fmt.Errorf("answer period_lower: %w", err)
			}
			if lower.Cmp(ref.period) > 0 {
				return failed, fmt.Errorf("floor %v is above the reference %v", lower, ref)
			}
		}
		return degraded, nil
	}
	if period.Cmp(ref.period) != 0 {
		return failed, fmt.Errorf("period %v, reference %v", period, ref)
	}
	if a.degradation != "" {
		return degraded, nil
	}
	if !a.verified {
		return failed, errors.New("exact answer without a verified certificate")
	}
	return exact, nil
}

// outcome is the oracle's reading of one timed-phase request: one
// verdict per answer it should carry.
type outcome struct {
	verdicts []verdict
	errs     []error
	wrong    int // answers the reference or the wire certificate refutes
	nodes    int // sadf automaton nodes of an answered model
}

// exact counts the exact answers of the request.
func (o outcome) exact() int {
	n := 0
	for _, v := range o.verdicts {
		if v == exact {
			n++
		}
	}
	return n
}

// oracle judges samples against references computed once per variant
// (see the variant pools in workload.go). Safe for concurrent use.
type oracle struct {
	w     *workload
	mu    sync.Mutex
	refs  map[string]reference
	sigma map[string]int64 // Σq of each variant's graph, for the shape report
}

func newOracle(w *workload) *oracle {
	o := &oracle{w: w, refs: map[string]reference{}, sigma: map[string]int64{}}
	for v, sv := range w.sadf {
		key := fmt.Sprintf("sadf/%d", v)
		o.refs[key] = sv.ref
		o.sigma[key] = sigmaQ(sv.model.Scenarios[0].Graph)
	}
	return o
}

// ref returns the reference of answer k of s, computing it from the
// regenerated input the first time its variant is seen.
func (o *oracle) ref(ctx context.Context, s *sample, k int) (reference, error) {
	key := s.refs[k]
	o.mu.Lock()
	r, ok := o.refs[key]
	o.mu.Unlock()
	if ok {
		return r, nil
	}
	g := o.input(s).graphs[k]
	r, err := graphReference(ctx, g)
	if err != nil {
		return r, err
	}
	o.mu.Lock()
	o.refs[key] = r
	o.sigma[key] = sigmaQ(g)
	o.mu.Unlock()
	return r, nil
}

// input regenerates the sample's input once.
func (o *oracle) input(s *sample) *input {
	if s.in == nil {
		s.in = o.w.input(s.idx)
	}
	return s.in
}

// check judges one sample.
func (o *oracle) check(ctx context.Context, s *sample) outcome {
	n := len(s.refs)
	out := outcome{verdicts: make([]verdict, n), errs: make([]error, n)}
	failAll := func(err error) outcome {
		for i := range out.verdicts {
			out.verdicts[i], out.errs[i] = failed, err
		}
		return out
	}
	switch {
	case s.err != nil:
		return failAll(fmt.Errorf("transport: %w", s.err))
	case s.status != 200:
		var ep serve.ErrorPayload
		_ = json.Unmarshal(s.body, &ep)
		return failAll(fmt.Errorf("HTTP %d %s: %s", s.status, ep.Kind, ep.Error))
	case len(s.answers) != n:
		return failAll(fmt.Errorf("%d answers for %d items", len(s.answers), n))
	}
	if s.path == pathSADF {
		a := s.answers[0]
		if a.degradation == "" && !a.hasCert {
			out.wrong = 1
			return failAll(errors.New("exact sadf answer without a wire certificate"))
		}
		if s.body != nil {
			var p serve.SADFResultPayload
			if err := json.Unmarshal(s.body, &p); err != nil {
				return failAll(fmt.Errorf("decode: %w", err))
			}
			if p.Cert != nil {
				if err := checkWireCert(ctx, o.input(s).model, &p); err != nil {
					out.wrong = 1
					return failAll(err)
				}
			}
		}
		out.nodes = a.nodes
	}
	for k, a := range s.answers {
		switch {
		case !a.present:
			out.verdicts[k], out.errs[k] = failed, errors.New("no entry")
			continue
		case a.itemErr != "":
			out.verdicts[k], out.errs[k] = failed, errors.New(a.itemErr)
			continue
		}
		ref, err := o.ref(ctx, s, k)
		if err != nil {
			out.verdicts[k], out.errs[k] = failed, err
			continue
		}
		out.verdicts[k], out.errs[k] = judge(a, ref)
		if out.verdicts[k] == failed {
			out.wrong++
		}
	}
	return out
}

// checkWireCert rebuilds a sadf answer's wire certificate against the
// client's own model, re-checks it, and holds the answer to the period
// it proves.
func checkWireCert(ctx context.Context, m *sadf.Model, p *serve.SADFResultPayload) error {
	cert, err := p.Cert.Cert(m)
	if err != nil {
		return fmt.Errorf("wire certificate: %w", err)
	}
	graphs, err := p.Cert.CertGraphs(m)
	if err != nil {
		return fmt.Errorf("wire certificate: %w", err)
	}
	if err := cert.Check(ctx, graphs); err != nil {
		return fmt.Errorf("wire certificate rejected: %w", err)
	}
	if cert.Unbounded != p.Unbounded || (!p.Unbounded && (cert.Period.Num() != p.PeriodNum || cert.Period.Den() != p.PeriodDen)) {
		return errors.New("wire certificate proves another period than the answer claims")
	}
	return nil
}
