package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Health is the router's self-report, served by /healthz.
type Health struct {
	Draining bool           `json:"draining"`
	Alive    int            `json:"alive"`
	Replicas []MemberHealth `json:"replicas"`
}

// NewHandler wraps a Router in its HTTP surface:
//
//	POST /v1/throughput, POST /v1/sadf — decode + validate the
//	     request, route it by its canonical hash, relay the winning
//	     replica's answer verbatim (plus an X-SDF-Replica header naming
//	     it).
//	POST /v1/batch — decode the batch, split it by ring ownership so
//	     each item lands on its cache-warm replica, fan the sub-batches
//	     out, re-dispatch the items of failed or straggling replicas to
//	     survivors, and merge the per-item answers back into request
//	     order (always one entry per item; never a batch-wide 5xx for
//	     item failures).
//	GET  /healthz — router health: per-replica membership state.
//	GET  /readyz — 200 while admitting with at least one alive
//	     replica, 503 otherwise (load balancers stop routing before a
//	     SIGTERM drain completes, and while the whole fleet is dark).
//	GET  /metrics — Prometheus text exposition of the router registry;
//	     404 when the router was built without one.
func NewHandler(r *Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/throughput", r.relay("/v1/throughput", serve.MaxRequestBytes,
		func(body []byte) (string, time.Duration, error) {
			req, err := serve.DecodeRequest(body)
			if err != nil {
				return "", 0, err
			}
			return req.Key(), req.Timeout, nil
		}))
	mux.HandleFunc("POST /v1/sadf", r.relay("/v1/sadf", serve.MaxSADFRequestBytes,
		func(body []byte) (string, time.Duration, error) {
			req, err := serve.DecodeSADFRequest(body)
			if err != nil {
				return "", 0, err
			}
			return req.Key(), req.Timeout, nil
		}))
	mux.HandleFunc("POST /v1/batch", r.handleBatch)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, Health{
			Draining: r.Draining(),
			Alive:    r.aliveCount(),
			Replicas: r.MembersHealth(),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		type readiness struct {
			Ready    bool   `json:"ready"`
			Reason   string `json:"reason,omitempty"`
			Alive    int    `json:"alive"`
			Replicas int    `json:"replicas"`
		}
		alive := r.aliveCount()
		switch {
		case r.Draining():
			w.Header().Set("Retry-After", "5")
			writeJSON(w, http.StatusServiceUnavailable,
				readiness{Reason: "draining", Alive: alive, Replicas: len(r.members)})
		case alive == 0:
			w.Header().Set("Retry-After", strconv.Itoa(r.unavailableRetryAfter()))
			writeJSON(w, http.StatusServiceUnavailable,
				readiness{Reason: "no alive replicas", Alive: 0, Replicas: len(r.members)})
		default:
			writeJSON(w, http.StatusOK, readiness{Ready: true, Alive: alive, Replicas: len(r.members)})
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		if r.reg == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.reg.WritePrometheus(w)
	})
	return mux
}

// relay is the proxy path of the single-answer endpoints: read the
// body under the endpoint's cap and decode it exactly as the replicas
// do — a malformed request bounces here with the replicas' own kind and
// status instead of consuming fleet attempts — then route by the
// decoded request's canonical key and relay the winning answer.
func (r *Router) relay(path string, limit int64, decode func([]byte) (key string, timeout time.Duration, err error)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		start := r.reg.Now()
		outcome := "ok"
		defer func() {
			r.reg.Histogram(obs.MetricFleetRequestSeconds, "outcome", outcome).
				Observe(r.reg.Now().Sub(start))
		}()

		if !r.admit() {
			outcome = "unavailable"
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, "draining", "fleet: router draining")
			return
		}
		defer r.finish()

		body, err := serve.ReadBody(w, req, limit)
		var key string
		var budget time.Duration
		if err == nil {
			key, budget, err = decode(body)
		}
		if err != nil {
			outcome = "error"
			kind := serve.KindOf(err)
			writeError(w, serve.StatusOf(kind), kind, err.Error())
			return
		}

		// The end-to-end budget: the request's own analysis deadline (or
		// the router default) plus transport slack, carved per attempt
		// inside routeOn.
		if budget <= 0 {
			budget = r.opts.DefaultTimeout
		}
		ctx, cancel := context.WithTimeout(req.Context(), budget+2*time.Second)
		defer cancel()

		out, _, err := r.routeOn(ctx, path, key, r.opts.HedgeDelay, body)
		switch {
		case errors.Is(err, errNoReplicas):
			outcome = "unavailable"
			w.Header().Set("Retry-After", strconv.Itoa(r.unavailableRetryAfter()))
			writeError(w, http.StatusServiceUnavailable, "unavailable",
				"fleet: no alive replicas (all ejected; probes will re-admit recovering ones)")
			return
		case err != nil:
			outcome = "error"
			writeError(w, http.StatusBadGateway, "unavailable", "fleet: "+err.Error())
			return
		case out.err != nil:
			// Exhausted failover, last failure was transport-level: the
			// fleet as a whole could not be reached.
			outcome = "unavailable"
			w.Header().Set("Retry-After", strconv.Itoa(r.unavailableRetryAfter()))
			writeError(w, http.StatusBadGateway, "unavailable", "fleet: "+out.err.Error())
			return
		}
		// A completed exchange — success or a replica's own error payload
		// — is relayed verbatim: the replica's status, kind and
		// Retry-After survive the hop so clients see one consistent wire
		// contract, and the brownout marker tells the client its answer
		// was degraded even through the fleet.
		if !out.ok() {
			outcome = "error"
		}
		for _, h := range []string{"Retry-After", "Content-Type", "X-SDF-Degradation"} {
			if v := out.header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.Header().Set("X-SDF-Replica", out.m.addr)
		w.WriteHeader(out.status)
		_, _ = w.Write(out.body)
	}
}

// unavailableRetryAfter sizes the Retry-After hint for a fleet with no
// routable replicas: roughly one probation cycle — how long a
// recovering replica needs before probes re-admit it — never less than
// a second.
func (r *Router) unavailableRetryAfter() int {
	d := r.opts.ProbeInterval * time.Duration(r.opts.ReadmitThreshold+1)
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, serve.ErrorPayload{Error: msg, Kind: kind})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
