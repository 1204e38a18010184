package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/guard"
	"repro/internal/lint"
	"repro/internal/maxplus"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/rat"
	"repro/internal/sadf"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/verify"
)

var (
	// ErrBadModel marks a request whose FSM-SADF model is structurally
	// invalid: unparsable, dangling cross-references, unreachable
	// states, or scenarios that do not share one token signature.
	ErrBadModel = errors.New("serve: invalid sadf model")
	// ErrBadScenario marks a model whose structure is fine but whose
	// scenario graphs fail the analysis preconditions (inconsistent
	// rates, deadlock cycles).
	ErrBadScenario = errors.New("serve: sadf scenario fails preconditions")
)

// SADFRequestPayload is the JSON wire form of a /v1/sadf request. The
// model arrives either as the JSON document of sdfio.ReadSADFJSON or as
// the native text format; exactly one must be set.
type SADFRequestPayload struct {
	Model     json.RawMessage `json:"model,omitempty"`
	ModelText string          `json:"model_text,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
	ExactOnly bool            `json:"exact_only,omitempty"`
}

// SADFRequest is a decoded, validated sadf analysis request.
type SADFRequest struct {
	Model   *sadf.Model
	Timeout time.Duration
	// ExactOnly refuses degraded answers instead of serving a brownout
	// bound. Excluded from Key: the cached exact answer is the same.
	ExactOnly bool
}

// DecodeSADFRequest parses and validates a /v1/sadf body. Structural
// model errors wrap ErrBadModel; transport-shape errors wrap
// ErrBadRequest.
func DecodeSADFRequest(data []byte) (*SADFRequest, error) {
	if len(data) > MaxSADFRequestBytes {
		return nil, fmt.Errorf("%w: request body is %d bytes, limit %d", ErrTooLarge, len(data), MaxSADFRequestBytes)
	}
	var p SADFRequestPayload
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after the request object", ErrBadRequest)
	}
	return p.decode()
}

func (p *SADFRequestPayload) decode() (*SADFRequest, error) {
	if len(p.Model) > 0 && p.ModelText != "" {
		return nil, fmt.Errorf("%w: both model and model_text set", ErrBadRequest)
	}
	if p.TimeoutMS < 0 {
		return nil, fmt.Errorf("%w: negative timeout", ErrBadRequest)
	}
	var (
		m   *sadf.Model
		err error
	)
	switch {
	case len(p.Model) > 0:
		m, err = sdfio.ReadSADFJSON(bytes.NewReader(p.Model))
	case p.ModelText != "":
		m, err = sdfio.ParseSADFText(p.ModelText)
	default:
		return nil, fmt.Errorf("%w: neither model nor model_text set", ErrBadRequest)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	return &SADFRequest{
		Model:     m,
		Timeout:   time.Duration(p.TimeoutMS) * time.Millisecond,
		ExactOnly: p.ExactOnly,
	}, nil
}

// Key is the canonical cache key of the request: a hash of the model's
// canonical text rendering, which covers scenario graphs, FSM structure
// and the initial state. Two syntactically different documents of the
// same model share a key.
func (r *SADFRequest) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "sadf\n%s", sdfio.SADFTextString(r.Model))
	return hex.EncodeToString(h.Sum(nil))
}

// SADFCertPayload is the JSON wire form of a verify.SADFCert, complete
// enough for a client to rebuild the certificate and re-check it
// against its own parse of the model — certified answers survive any
// number of proxy hops (the fleet router included) because the proof
// travels with them. Matrix entries use null for −∞; schedules carry
// actor names, resolved against the client's scenario graphs.
type SADFCertPayload struct {
	ScenarioNames []string     `json:"scenario_names"`
	Matrices      [][][]*int64 `json:"matrices"`
	Schedules     [][]string   `json:"schedules"`
	StateNames    []string     `json:"state_names"`
	StateScenario []int        `json:"state_scenario"`
	Transitions   [][2]int     `json:"transitions"`
	Initial       int          `json:"initial"`
	Unbounded     bool         `json:"unbounded,omitempty"`
	PeriodNum     int64        `json:"period_num,omitempty"`
	PeriodDen     int64        `json:"period_den,omitempty"`
	Potentials    []int64      `json:"potentials,omitempty"`
	Cycle         []int        `json:"cycle,omitempty"`
	Order         []int        `json:"order,omitempty"`
}

// NewSADFCertPayload renders a certificate for the wire.
func NewSADFCertPayload(c *verify.SADFCert, scenarios []*sdf.Graph) *SADFCertPayload {
	p := &SADFCertPayload{
		ScenarioNames: c.ScenarioNames,
		StateNames:    c.StateNames,
		StateScenario: c.StateScenario,
		Transitions:   c.Transitions,
		Initial:       c.Initial,
		Unbounded:     c.Unbounded,
		Potentials:    c.Potentials,
		Cycle:         c.Cycle,
		Order:         c.Order,
	}
	if !c.Unbounded {
		p.PeriodNum, p.PeriodDen = c.Period.Num(), c.Period.Den()
	}
	for k, mc := range c.Matrices {
		n := mc.Matrix.Size()
		rows := make([][]*int64, n)
		for i := 0; i < n; i++ {
			rows[i] = make([]*int64, n)
			for j := 0; j < n; j++ {
				if e := mc.Matrix.At(i, j); !e.IsNegInf() {
					v := e.Int()
					rows[i][j] = &v
				}
			}
		}
		p.Matrices = append(p.Matrices, rows)
		sched := make([]string, len(mc.Schedule))
		for i, a := range mc.Schedule {
			sched[i] = scenarios[k].Actor(a).Name
		}
		p.Schedules = append(p.Schedules, sched)
	}
	return p
}

// Cert rebuilds the verify.SADFCert against the given model (the
// client's own parse): schedules resolve actor names per scenario, the
// scenario order is matched by name. Everything the rebuild cannot
// resolve is a certificate error.
func (p *SADFCertPayload) Cert(m *sadf.Model) (*verify.SADFCert, error) {
	if len(p.Matrices) != len(p.ScenarioNames) || len(p.Schedules) != len(p.ScenarioNames) {
		return nil, fmt.Errorf("serve: sadf certificate payload: %d names, %d matrices, %d schedules",
			len(p.ScenarioNames), len(p.Matrices), len(p.Schedules))
	}
	cert := &verify.SADFCert{
		ScenarioNames: p.ScenarioNames,
		StateNames:    p.StateNames,
		StateScenario: p.StateScenario,
		Transitions:   p.Transitions,
		Initial:       p.Initial,
		Unbounded:     p.Unbounded,
		Potentials:    p.Potentials,
		Cycle:         p.Cycle,
		Order:         p.Order,
	}
	if !p.Unbounded {
		period, err := rat.New(p.PeriodNum, p.PeriodDen)
		if err != nil {
			return nil, fmt.Errorf("serve: sadf certificate payload: period %d/%d: %w", p.PeriodNum, p.PeriodDen, err)
		}
		cert.Period = period
	}
	for k, name := range p.ScenarioNames {
		idx, ok := m.ScenarioIndex(name)
		if !ok {
			return nil, fmt.Errorf("serve: sadf certificate names unknown scenario %q", name)
		}
		g := m.Scenarios[idx].Graph
		n := len(p.Matrices[k])
		mat := maxplus.NewMatrix(n)
		for i, row := range p.Matrices[k] {
			if len(row) != n {
				return nil, fmt.Errorf("serve: sadf certificate matrix %d is ragged", k)
			}
			for j, e := range row {
				if e != nil {
					mat.Set(i, j, maxplus.FromInt(*e))
				}
			}
		}
		sched := make([]sdf.ActorID, len(p.Schedules[k]))
		for i, an := range p.Schedules[k] {
			id, ok := g.ActorByName(an)
			if !ok {
				return nil, fmt.Errorf("serve: sadf certificate schedule names unknown actor %q in scenario %q", an, name)
			}
			sched[i] = id
		}
		cert.Matrices = append(cert.Matrices, &verify.MatrixCert{Matrix: mat, Schedule: sched})
	}
	return cert, nil
}

// CertGraphs returns the scenario graphs of m ordered as the payload's
// ScenarioNames, the order Cert's certificate expects in Check.
func (p *SADFCertPayload) CertGraphs(m *sadf.Model) ([]*sdf.Graph, error) {
	graphs := make([]*sdf.Graph, len(p.ScenarioNames))
	for k, name := range p.ScenarioNames {
		idx, ok := m.ScenarioIndex(name)
		if !ok {
			return nil, fmt.Errorf("serve: sadf certificate names unknown scenario %q", name)
		}
		graphs[k] = m.Scenarios[idx].Graph
	}
	return graphs, nil
}

// SADFResultPayload is the JSON wire form of a sadf analysis answer.
type SADFResultPayload struct {
	Model     string `json:"model"`
	Scenarios int    `json:"scenarios"`
	States    int    `json:"states"`
	Tokens    int    `json:"tokens"`

	Unbounded bool   `json:"unbounded,omitempty"`
	Period    string `json:"period,omitempty"`
	PeriodNum int64  `json:"period_num,omitempty"`
	PeriodDen int64  `json:"period_den,omitempty"`

	AutomatonNodes int      `json:"automaton_nodes,omitempty"`
	AutomatonEdges int      `json:"automaton_edges,omitempty"`
	Critical       []string `json:"critical,omitempty"`

	Verified    bool             `json:"verified,omitempty"`
	Certificate string           `json:"certificate,omitempty"`
	Cert        *SADFCertPayload `json:"cert,omitempty"`

	Cached      bool   `json:"cached,omitempty"`
	Deduped     bool   `json:"deduped,omitempty"`
	Degradation string `json:"degradation,omitempty"`
	Stale       bool   `json:"stale,omitempty"`

	// PeriodLower carries the brownout bound's floor when one exists
	// (an FSM self-loop anchors it).
	PeriodLower    string `json:"period_lower,omitempty"`
	PeriodLowerNum int64  `json:"period_lower_num,omitempty"`
	PeriodLowerDen int64  `json:"period_lower_den,omitempty"`
}

// sadfAnswer is the engine-layer result of a sadf analysis before
// rendering, carried inside the shared answer struct so the result
// cache and singleflight group serve this workload unchanged.
type sadfAnswer struct {
	res  *sadf.Result
	cert *verify.SADFCert
}

// AnalyzeSADF serves one FSM-SADF worst-case throughput request through
// the same driver as Analyze: admission control and the bounded queue,
// per-scenario prechecks, admission pricing by the summed per-scenario
// *reduced* cost, the result cache with singleflight dedup, and the
// brownout ladder.
func (s *Server) AnalyzeSADF(ctx context.Context, req *SADFRequest) (*SADFResultPayload, error) {
	return serveRequest[*SADFResultPayload](ctx, s, &sadfJob{req: req}, req.ExactOnly)
}

// sadfJob is the FSM-SADF workload: one model.
type sadfJob struct {
	req  *SADFRequest
	cost int64
}

// prepare runs the lint prechecks on every scenario graph — an
// inconsistent or deadlocked scenario fails the whole model for almost
// nothing — and prices the model by the sum of per-scenario reduced
// costs: each scenario runs through the reduction fixpoint and is
// charged at its reduced size, so the paper's reduction techniques
// price this workload too. The sum saturates instead of overflowing.
func (j *sadfJob) prepare(s *Server) error {
	sp := s.reg.StartSpan("sadf.precheck")
	for _, sc := range j.req.Model.Scenarios {
		if err := lint.PrecheckWith(passes.NewFacts(sc.Graph)); err != nil {
			sp.Finish()
			return fmt.Errorf("%w: scenario %q: %v", ErrBadScenario, sc.Name, err)
		}
	}
	sp.Finish()
	rctx := obs.WithRegistry(s.baseCtx, s.reg)
	for _, sc := range j.req.Model.Scenarios {
		next, ok := rat.AddChecked(j.cost, passes.ReducedCost(rctx, sc.Graph))
		if !ok {
			// The running total is already far past any pool capacity,
			// so the request is refused either way.
			break
		}
		j.cost = next
	}
	return nil
}

// key covers the model's canonical text rendering, in a key space of
// its own.
func (j *sadfJob) key() string { return "sadf|" + j.req.Key() }

// execute runs the full automaton analysis.
func (j *sadfJob) execute(s *Server) (*answer, error) {
	return s.execute(j.cost, j.req.Timeout, func(ctx context.Context) (*answer, error) {
		ctx = guard.WithBudget(ctx, guard.BudgetFrom(ctx))
		res, cert, err := sadf.Analyze(ctx, j.req.Model)
		if err != nil {
			return nil, err
		}
		s.reg.Counter(obs.MetricSADFAutomatonNodes).Add(int64(res.AutomatonNodes))
		return &answer{engine: "sadf", sadf: &sadfAnswer{res: res, cert: cert}}, nil
	})
}

// render re-checks the certificate against the requesting model's own
// scenario graphs on every serve — cached and deduplicated entries
// included — before the payload claims Verified, and ships it on the
// wire so clients can repeat the check behind any proxy.
func (j *sadfJob) render(ans *answer) (*SADFResultPayload, error) {
	m, sa := j.req.Model, ans.sadf
	if sa == nil {
		return nil, fmt.Errorf("serve: cached entry is not a sadf answer")
	}
	if err := sa.cert.Check(context.Background(), m.Graphs()); err != nil {
		return nil, fmt.Errorf("serve: sadf certificate rejected: %w", err)
	}
	res := &SADFResultPayload{
		Model:          m.Name,
		Scenarios:      len(m.Scenarios),
		States:         len(m.States),
		Tokens:         sa.res.Tokens,
		Unbounded:      sa.res.Unbounded,
		AutomatonNodes: sa.res.AutomatonNodes,
		AutomatonEdges: sa.res.AutomatonEdges,
		Critical:       sa.res.CriticalStates,
		Verified:       true,
		Certificate:    sa.cert.String(),
		Cert:           NewSADFCertPayload(sa.cert, m.Graphs()),
		Cached:         ans.cached,
		Deduped:        ans.deduped,
		Stale:          ans.stale,
	}
	if ans.stale {
		res.Degradation = LevelStale.String()
	}
	if !sa.res.Unbounded {
		res.Period, res.PeriodNum, res.PeriodDen = ratWire(sa.res.Period)
	}
	return res, nil
}

func (j *sadfJob) record(reg *obs.Registry, outcome string, elapsed time.Duration) {
	reg.Histogram(obs.MetricSADFSeconds, "outcome", outcome).Observe(elapsed)
	reg.Counter(obs.MetricSADFRequests, "outcome", outcome).Inc()
}

// bounded answers with the certified-by-construction
// per-scenario-worst bound: the worst scenario's serial makespan
// Σ q_a·exec_a bounds every automaton matrix entry from above (all
// tokens available at time zero, self-timed execution finishes no later
// than the serial schedule), and every automaton edge carries delay 1,
// so no cycle mean — hence no worst-case period — exceeds it. When the
// FSM lets a state repeat immediately, that scenario's period floor
// anchors the answer from below. The bound is re-derived from the model
// on every serve, never cached: re-derivation is the check.
func (j *sadfJob) bounded(context.Context, *Server) (*SADFResultPayload, error) {
	m := j.req.Model
	res := &SADFResultPayload{
		Model:       m.Name,
		Scenarios:   len(m.Scenarios),
		States:      len(m.States),
		Tokens:      m.Tokens(),
		Degradation: LevelBounded.String(),
	}
	looped := m.SelfLoopScenarios()
	var upper, lower rat.Rat
	hasLower := false
	for k, sc := range m.Scenarios {
		facts := passes.NewFacts(sc.Graph)
		q, err := facts.Repetition()
		if err != nil {
			return nil, fmt.Errorf("%w: scenario %q: %v", ErrBadScenario, sc.Name, err)
		}
		makespan := int64(0)
		for a, copies := range q {
			work, ok := rat.MulChecked(copies, sc.Graph.Actor(sdf.ActorID(a)).Exec)
			if !ok {
				return nil, fmt.Errorf("%w: scenario %q serial makespan overflows int64", ErrBadScenario, sc.Name)
			}
			if makespan, ok = rat.AddChecked(makespan, work); !ok {
				return nil, fmt.Errorf("%w: scenario %q serial makespan overflows int64", ErrBadScenario, sc.Name)
			}
		}
		if ms := rat.FromInt(makespan); k == 0 || ms.Cmp(upper) > 0 {
			upper = ms
		}
		if looped[sc.Name] {
			if floor, ok := facts.PeriodFloor(); ok {
				if !hasLower || floor.Cmp(lower) > 0 {
					lower = floor
					hasLower = true
				}
			}
		}
	}
	res.Period, res.PeriodNum, res.PeriodDen = ratWire(upper)
	if hasLower && !lower.IsZero() {
		res.PeriodLower, res.PeriodLowerNum, res.PeriodLowerDen = ratWire(lower)
	}
	return res, nil
}
