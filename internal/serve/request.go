package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/guard"
	"repro/internal/passes"
	"repro/internal/sdf"
	"repro/internal/sdfio"
)

// ErrBadRequest marks a request the decoder refused: malformed JSON, an
// unknown method, an invalid graph. It maps to HTTP 400.
var ErrBadRequest = errors.New("serve: bad request")

// ErrTooLarge marks a request whose body blew through its endpoint's
// wire cap (MaxRequestBytes and its siblings). It maps to HTTP 413 with
// its own stable error kind, so clients can tell "shrink the graph"
// from "fix the JSON".
var ErrTooLarge = errors.New("serve: request body too large")

// RequestPayload is the JSON wire form of an analysis request. Exactly
// one of Graph (the sdfio JSON graph object) and GraphText (the native
// text format) must be set.
type RequestPayload struct {
	// Graph is the graph in the repository's JSON wire form
	// ({"name": ..., "actors": [...], "channels": [...]}).
	Graph json.RawMessage `json:"graph,omitempty"`
	// GraphText is the graph in the native text format, an alternative
	// for clients that keep graphs as .sdf files.
	GraphText string `json:"graph_text,omitempty"`
	// Method selects the engine: "hedged" (the default: the certified
	// engine policy, matrix first), or a single engine "matrix",
	// "statespace", "hsdf".
	Method string `json:"method,omitempty"`
	// TimeoutMS is the per-request analysis deadline in milliseconds;
	// 0 uses the server default, and the server clamps it to its
	// configured maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Budget is a uniform work cap (states/firings/actors/tokens) for
	// this request; 0 uses the defaults, negative lifts the caps (the
	// server still clamps with its own pool and deadline).
	Budget int64 `json:"budget,omitempty"`
	// Inject arms deterministic faults for this request. Refused unless
	// the server was started with injection enabled; exists so soak
	// tests can drive the failure paths through the real wire format.
	Inject []InjectPayload `json:"inject,omitempty"`
	// ExactOnly opts this request out of brownout serving: when the
	// server's degradation level is anything but exact, the request is
	// refused (HTTP 429 + Retry-After) instead of answered with a
	// bounded or stale result.
	ExactOnly bool `json:"exact_only,omitempty"`
}

// InjectPayload is the wire form of one guard.Fault.
type InjectPayload struct {
	Engine string `json:"engine,omitempty"`
	Point  string `json:"point"` // checkpoint, precheck, alloc
	Mode   string `json:"mode"`  // error, panic, refuse
	N      int64  `json:"n,omitempty"`
	Times  int64  `json:"times,omitempty"`
}

// ResultPayload is the JSON wire form of a successful analysis.
type ResultPayload struct {
	Graph     string `json:"graph"`
	Engine    string `json:"engine"`
	Unbounded bool   `json:"unbounded,omitempty"`
	// Period is Λ as an exact rational string ("5/2"); Num/Den carry
	// the same value for clients that want numbers.
	Period    string `json:"period,omitempty"`
	PeriodNum int64  `json:"period_num,omitempty"`
	PeriodDen int64  `json:"period_den,omitempty"`
	// Verified is true when the answer carries a certificate checked in
	// exact arithmetic against this request's graph. Every engine the
	// server runs is certified, and an unbounded answer carries a
	// topological-order witness, so every served answer is verified.
	Verified bool `json:"verified"`
	// Certificate is the human-readable witness summary.
	Certificate string `json:"certificate,omitempty"`
	// Report is the hedged policy's report, one line per engine.
	Report []string `json:"report,omitempty"`
	// Reduction is the fixpoint trace of the reduction pass manager when
	// it shrank the graph before the engines ran, one line per rewrite.
	// The answer above was computed on the reduced graph and lifted back
	// through this chain; Certificate then summarises the lifted chain.
	Reduction []string `json:"reduction,omitempty"`
	// Cached and Deduped report how the answer was produced: from the
	// result cache, or by joining an identical in-flight request.
	Cached  bool `json:"cached,omitempty"`
	Deduped bool `json:"deduped,omitempty"`
	// Degradation names the brownout level the answer was served at
	// ("bounded", "stale-cache"); empty for a full-fidelity answer. A
	// bounded answer's Period is the certified conservative upper bound
	// of Λ, not Λ itself.
	Degradation string `json:"degradation,omitempty"`
	// Stale marks an answer served from an expired cache entry (a
	// background refresh was kicked off).
	Stale bool `json:"stale,omitempty"`
	// PeriodLower is the advisory floor of a bounded answer's period
	// enclosure (Lower ≤ Λ ≤ Period); absent when no cheap floor
	// witness exists or the enclosure is degenerate.
	PeriodLower    string `json:"period_lower,omitempty"`
	PeriodLowerNum int64  `json:"period_lower_num,omitempty"`
	PeriodLowerDen int64  `json:"period_lower_den,omitempty"`
}

// ErrorPayload is the JSON wire form of a failed analysis. Kind is a
// stable, machine-readable classification (see KindOf) that clients map
// back to exit codes or retry policies.
type ErrorPayload struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// Request is a decoded analysis request.
type Request struct {
	// Graph is the validated graph to analyse.
	Graph *sdf.Graph
	// Method is the normalized engine selection: "hedged", "matrix",
	// "statespace" or "hsdf".
	Method string
	// Timeout is the requested deadline (0 = server default).
	Timeout time.Duration
	// Budget is the uniform work cap (0 = defaults, negative =
	// unlimited dimensions).
	Budget int64
	// Faults are the armed per-request faults (empty for real traffic).
	Faults []guard.Fault
	// ExactOnly refuses brownout answers (see RequestPayload.ExactOnly).
	// It is excluded from Key(): it gates serving, not the answer.
	ExactOnly bool
}

// DecodeRequest parses and validates the wire form of one request. A
// body past MaxRequestBytes wraps ErrTooLarge, every other failure
// ErrBadRequest; the graph is structurally validated but not prechecked
// (admission prechecks are the server's job, after the queue has
// bounded the work).
func DecodeRequest(data []byte) (*Request, error) {
	bad := func(format string, args ...any) (*Request, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
	}
	if len(data) > MaxRequestBytes {
		return nil, fmt.Errorf("%w: payload of %d bytes exceeds the %d-byte limit", ErrTooLarge, len(data), MaxRequestBytes)
	}
	var p RequestPayload
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return bad("invalid JSON: %v", err)
	}
	if dec.More() {
		return bad("trailing data after the request object")
	}
	return p.decode()
}

// decode validates one already-unmarshalled payload into a Request. It
// is shared between the single-request decoder and the batch decoder,
// where each item fails independently (per-item fault isolation starts
// at the wire).
func (p RequestPayload) decode() (*Request, error) {
	bad := func(format string, args ...any) (*Request, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
	}

	var g *sdf.Graph
	var err error
	switch {
	case len(p.Graph) > 0 && p.GraphText != "":
		return bad("graph and graph_text are mutually exclusive")
	case len(p.Graph) > 0:
		g, err = sdfio.ReadJSON(bytes.NewReader(p.Graph))
	case p.GraphText != "":
		g, err = sdfio.ParseText(p.GraphText)
	default:
		return bad("no graph: set graph (JSON) or graph_text (native text)")
	}
	if err != nil {
		return bad("graph: %v", err)
	}
	if err := g.Validate(); err != nil {
		return bad("graph: %v", err)
	}

	method := strings.ToLower(strings.TrimSpace(p.Method))
	switch method {
	case "":
		method = "hedged"
	case "hedged", "matrix", "statespace", "hsdf":
	default:
		return bad("unknown method %q (hedged, matrix, statespace, hsdf)", p.Method)
	}
	if p.TimeoutMS < 0 {
		return bad("negative timeout_ms %d", p.TimeoutMS)
	}

	faults := make([]guard.Fault, 0, len(p.Inject))
	for i, ip := range p.Inject {
		f, err := ip.fault()
		if err != nil {
			return bad("inject[%d]: %v", i, err)
		}
		faults = append(faults, f)
	}

	return &Request{
		Graph:     g,
		Method:    method,
		Timeout:   time.Duration(p.TimeoutMS) * time.Millisecond,
		Budget:    p.Budget,
		Faults:    faults,
		ExactOnly: p.ExactOnly,
	}, nil
}

// fault converts the wire form to a guard.Fault.
func (p InjectPayload) fault() (guard.Fault, error) {
	f := guard.Fault{Engine: p.Engine, N: p.N, Times: p.Times}
	switch strings.ToLower(p.Point) {
	case "checkpoint", "":
		f.Point = guard.PointCheckpoint
	case "precheck":
		f.Point = guard.PointPrecheck
	case "alloc":
		f.Point = guard.PointAlloc
	default:
		return f, fmt.Errorf("unknown point %q (checkpoint, precheck, alloc)", p.Point)
	}
	switch strings.ToLower(p.Mode) {
	case "error", "":
		f.Mode = guard.ModeError
	case "panic":
		f.Mode = guard.ModePanic
	case "refuse":
		f.Mode = guard.ModeRefuse
	default:
		return f, fmt.Errorf("unknown mode %q (error, panic, refuse)", p.Mode)
	}
	return f, nil
}

// Key returns the canonical cache/dedup key of the request: a hash over
// the graph's full structure (actor names, execution times, channel
// rates, initial tokens) plus the method and budget. Deadlines are
// deliberately excluded — a result computed under one deadline answers
// the same question under any other.
func (r *Request) Key() string {
	h := sha256.New()
	g := r.Graph
	fmt.Fprintf(h, "m=%s b=%d g=%s %d %d\n", r.Method, r.Budget, g.Name(), g.NumActors(), g.NumChannels())
	for _, a := range g.Actors() {
		fmt.Fprintf(h, "a %s %d\n", a.Name, a.Exec)
	}
	for _, c := range g.Channels() {
		fmt.Fprintf(h, "c %d %d %d %d %d\n", c.Src, c.Dst, c.Prod, c.Cons, c.Initial)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// costClamp bounds the per-request contribution of the iteration
// length to the admission cost; it aliases the fact layer's clamp so
// the wire-facing name survives the delegation below.
const costClamp = passes.CostClamp

// EstimateCost is the admission-control work estimate of analysing g,
// in abstract pool units: the structural size plus the iteration length
// Σq (clamped at costClamp), which is the dominant term of the
// state-space and HSDF engines. The arithmetic lives in the fact layer
// (passes.Facts.Cost); the server reads it off the fact table its
// precheck built, or the reduced graph's table after a reduction, so
// admission charges what will actually run.
func EstimateCost(g *sdf.Graph) int64 {
	return passes.NewFacts(g).Cost()
}
