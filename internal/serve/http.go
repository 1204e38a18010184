package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/guard"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// Wire caps of the analysis endpoints. Replicas and the fleet router
// read request bodies through ReadBody under the same cap, so both
// refuse an oversized body alike; clients and the router read answers
// under MaxResponseBytes.
const (
	// MaxRequestBytes caps a POST /v1/throughput body.
	MaxRequestBytes = 1 << 20
	// MaxSADFRequestBytes caps a POST /v1/sadf body: a model carries
	// several scenario graphs, so the cap is a few of the single-graph
	// cap.
	MaxSADFRequestBytes = 4 << 20
	// MaxBatchRequestBytes caps a POST /v1/batch body; roomier because a
	// batch legitimately carries many graphs, but still bounded before
	// the decoder allocates anything.
	MaxBatchRequestBytes = 8 << 20
	// MaxResponseBytes caps an analysis answer read off the wire. A
	// certified sadf answer ships its matrices (16 scenarios over a
	// 232-token ring answer about 4 MiB), a batch up to 1024 answers.
	MaxResponseBytes = 16 << 20
)

// ReadBody reads a request body under the endpoint's byte cap. A body
// past the cap is ErrTooLarge; any other read failure ErrBadRequest.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return nil, fmt.Errorf("%w: body exceeds the %d-byte limit", ErrTooLarge, mbe.Limit)
	case err != nil:
		return nil, errors.Join(ErrBadRequest, err)
	}
	return body, nil
}

// KindOf classifies an analysis error — of any endpoint — into the
// stable wire string of ErrorPayload.Kind. The order matters: the most
// specific, most actionable classification wins (a budget-caused engine
// error reports the budget, matching the sdftool exit-code policy).
func KindOf(err error) string {
	var pre *lint.PrecheckError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrTooLarge):
		return "too-large"
	case errors.Is(err, ErrBadRequest):
		return "bad-request"
	case errors.Is(err, ErrBadModel):
		return "sadf-model"
	case errors.Is(err, ErrBadScenario):
		return "sadf-scenario"
	case errors.Is(err, ErrInjectionDisabled):
		return "injection-disabled"
	case errors.Is(err, ErrDegraded):
		return "degraded"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.As(err, &pre),
		errors.Is(err, sdf.ErrInconsistent),
		errors.Is(err, lint.ErrDeadlockCycle):
		return "precondition"
	case errors.Is(err, guard.ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, guard.ErrCanceled), errors.Is(err, context.Canceled):
		return "canceled"
	// Breaker-open ranks below the substantive failures: a hedged error
	// joins the gated engines' refusals with the errors of the engines
	// that actually ran, and if one of those failed on budget, deadline
	// or a model precondition, retrying later (what breaker-open tells
	// the client) would not help. Only a request whose every path was
	// shed classifies as breaker-open.
	case errors.Is(err, guard.ErrBreakerOpen):
		return "breaker-open"
	case errors.Is(err, verify.ErrInvalid):
		return "certificate"
	case errors.Is(err, analysis.ErrEngineDisagreement):
		return "disagreement"
	case errors.Is(err, guard.ErrEngineFailed):
		return "engine"
	default:
		return "internal"
	}
}

// StatusOf maps an error kind to its HTTP status code.
func StatusOf(kind string) int {
	switch kind {
	case "bad-request", "sadf-model":
		return http.StatusBadRequest
	case "too-large":
		return http.StatusRequestEntityTooLarge
	case "injection-disabled":
		return http.StatusForbidden
	case "overloaded", "degraded":
		return http.StatusTooManyRequests
	case "draining", "breaker-open":
		return http.StatusServiceUnavailable
	case "precondition", "sadf-scenario", "budget":
		return http.StatusUnprocessableEntity
	case "deadline", "canceled":
		return http.StatusGatewayTimeout
	default: // certificate, disagreement, engine, internal
		return http.StatusInternalServerError
	}
}

// retryable reports whether the condition clears by itself, so the
// response should carry a Retry-After hint.
func retryable(kind string) bool {
	switch kind {
	case "overloaded", "draining", "breaker-open", "degraded":
		return true
	}
	return false
}

// drainRetryAfter is the Retry-After for a draining server: the client
// should wait for its replacement to take over, not hammer a process on
// its way out.
const drainRetryAfter = 5

// retryAfter derives the Retry-After hint (in whole seconds) from the
// server's actual state instead of a hardcoded constant: a draining
// server tells clients to stay away until a replacement takes over, a
// tripped breaker quotes its own cooldown, and an overloaded server
// scales the hint with how full its queue is, so a deep backlog spreads
// the retry storm instead of synchronising it one second later.
func (s *Server) retryAfter(kind string) int {
	switch kind {
	case "draining":
		return drainRetryAfter
	case "breaker-open":
		cd := s.opts.Breaker.Cooldown
		if cd <= 0 {
			cd = time.Second
		}
		secs := int((cd + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		return secs
	case "degraded":
		// The controller's drain estimate: how long the present backlog
		// needs to clear at the recent mean latency.
		return s.ctrl.drainEstimate(len(s.slots))
	default: // overloaded
		if s.ctrl.current() > LevelExact {
			// A degraded server knows its drain time; quote it instead
			// of the static backlog heuristic.
			return s.ctrl.drainEstimate(len(s.slots))
		}
		backlog := len(s.slots)
		hint := 1 + backlog/s.opts.Workers
		if hint > 8 {
			hint = 8
		}
		return hint
	}
}

// NewHandler wraps a Server in its HTTP surface:
//
//	POST /v1/throughput, /v1/sadf, /v1/batch — analyse the request
//	     body (RequestPayload, SADFRequestPayload, BatchRequestPayload),
//	     answering its result payload or ErrorPayload.
//	GET  /healthz — full Health report, always 200 while the process
//	     lives.
//	GET  /readyz — 200 while admitting, 503 once draining, so load
//	     balancers stop routing before SIGTERM's drain completes. The
//	     body carries the draining flag, the per-engine breaker summary
//	     (what the fleet router's health probe parses) and the cache
//	     traffic detail for quick inspection.
//	GET  /metrics — Prometheus text exposition of the server's
//	     registry; 404 when the server was built without one.
//	GET  /debug/vars — the same registry in expvar-compatible JSON.
//	GET  /debug/events — the registry's recent structured events; 404
//	     unless the event ring was enabled.
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/throughput", post(s, MaxRequestBytes, DecodeRequest, s.Analyze,
		func(res *ResultPayload) (string, string) { return "X-SDF-Degradation", res.Degradation }))
	mux.HandleFunc("POST /v1/sadf", post(s, MaxSADFRequestBytes, DecodeSADFRequest, s.AnalyzeSADF,
		func(res *SADFResultPayload) (string, string) { return "X-SDF-Degradation", res.Degradation }))
	// A batch-level refusal (draining) is the only error AnalyzeBatch
	// returns: item failures never land there — a processed batch is
	// always 200 with per-item entries.
	mux.HandleFunc("POST /v1/batch", post(s, MaxBatchRequestBytes, DecodeBatchRequest, s.AnalyzeBatch,
		func(res *BatchResultPayload) (string, string) { return "X-SDF-Batch", res.Kind }))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		type cacheDetail struct {
			Entries   int   `json:"entries"`
			Capacity  int   `json:"capacity"`
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
			Deduped   int64 `json:"deduped"`
		}
		// The readiness body carries structured health detail on top of
		// the plain 200/503 contract: draining and the per-engine
		// breaker summary are what the fleet router's probe parses, so
		// it can gate membership without scraping /metrics. Existing
		// callers that only look at the status code are unaffected.
		type readiness struct {
			Ready       bool           `json:"ready"`
			Reason      string         `json:"reason,omitempty"`
			Draining    bool           `json:"draining"`
			Degradation string         `json:"degradation"`
			Breakers    []EngineHealth `json:"breakers"`
			Cache       cacheDetail    `json:"cache"`
		}
		detail := cacheDetail{
			Entries:   s.cache.len(),
			Capacity:  s.opts.CacheEntries,
			Hits:      s.cache.hits.Load(),
			Misses:    s.cache.misses.Load(),
			Evictions: s.cache.evictions.Load(),
			Deduped:   s.flights.deduped.Load(),
		}
		breakers := s.engineHealth()
		level := s.ctrl.current().String()
		if s.Draining() {
			w.Header().Set("Retry-After", strconv.Itoa(drainRetryAfter))
			writeJSON(w, http.StatusServiceUnavailable,
				readiness{Reason: "draining", Draining: true, Degradation: level, Breakers: breakers, Cache: detail})
			return
		}
		writeJSON(w, http.StatusOK, readiness{Ready: true, Degradation: level, Breakers: breakers, Cache: detail})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if s.reg == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		if s.reg == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.WriteVars(w)
	})
	mux.HandleFunc("GET /debug/events", func(w http.ResponseWriter, r *http.Request) {
		if !s.reg.EventsEnabled() {
			http.NotFound(w, r)
			return
		}
		events, total := s.reg.Events()
		writeJSON(w, http.StatusOK, struct {
			Total  int64       `json:"total"`
			Events []obs.Event `json:"events"`
		}{Total: total, Events: events})
	})
	return mux
}

// post is the handler of one POST analysis endpoint: read the body
// under the endpoint's cap, decode, analyse, and answer the payload —
// with the header marker names when its value is set — or the error
// payload of the failure's kind.
func post[Q, R any](s *Server, limit int64, decode func([]byte) (Q, error),
	analyze func(context.Context, Q) (R, error), marker func(R) (string, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := ReadBody(w, r, limit)
		if err != nil {
			s.writeError(w, err)
			return
		}
		req, err := decode(body)
		if err != nil {
			s.writeError(w, err)
			return
		}
		res, err := analyze(r.Context(), req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		// The marker rides a header too, so the fleet router can relay
		// it without parsing the body.
		if name, v := marker(res); v != "" {
			w.Header().Set(name, v)
		}
		writeJSON(w, http.StatusOK, res)
	}
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	kind := KindOf(err)
	if retryable(kind) {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(kind)))
	}
	writeJSON(w, StatusOf(kind), ErrorPayload{Error: err.Error(), Kind: kind})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Compact on the wire: a client holding an answer holds its bytes,
	// and indentation tripled a certified sadf answer. The status line
	// is out; an encode failure here can only be a broken connection,
	// which the server cannot repair.
	_ = json.NewEncoder(w).Encode(v)
}
