package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/sdfio"
)

func graphTextOf(t *testing.T, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sdfio.WriteText(&buf, gen.Figure2()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func requestBody(t *testing.T, method string) string {
	t.Helper()
	p := RequestPayload{GraphText: graphTextOf(t, "figure2"), Method: method}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHTTPThroughput(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	h := NewHandler(s)

	rec := postJSON(t, h, "/v1/throughput", requestBody(t, "hedged"))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var res ResultPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Period == "" {
		t.Errorf("result = %+v", res)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	h := NewHandler(s)

	cases := map[string]string{
		"empty":          ``,
		"not json":       `{`,
		"no graph":       `{"method":"hedged"}`,
		"unknown field":  `{"graph_text":"x","bogus":1}`,
		"unknown method": `{"graph_text":"graph g\n","method":"oracle"}`,
		"trailing data":  `{"graph_text":"x"} {"again":true}`,
	}
	for name, body := range cases {
		rec := postJSON(t, h, "/v1/throughput", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, rec.Code, rec.Body)
			continue
		}
		var ep ErrorPayload
		if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil {
			t.Errorf("%s: error body not JSON: %v", name, err)
			continue
		}
		if ep.Kind != "bad-request" {
			t.Errorf("%s: kind = %q, want bad-request", name, ep.Kind)
		}
	}
}

func TestHTTPInjectionForbidden(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{}) // injection not allowed
	defer s.Close()
	h := NewHandler(s)
	p := RequestPayload{
		GraphText: graphTextOf(t, "figure2"),
		Inject:    []InjectPayload{{Engine: "statespace", Point: "checkpoint", Mode: "panic"}},
	}
	b, _ := json.Marshal(p)
	rec := postJSON(t, h, "/v1/throughput", string(b))
	if rec.Code != http.StatusForbidden {
		t.Fatalf("status = %d, want 403 (body %s)", rec.Code, rec.Body)
	}
}

func TestHTTPOverloadedRetryAfter(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	h := NewHandler(s)
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}
	rec := postJSON(t, h, "/v1/throughput", requestBody(t, "hedged"))
	for i := 0; i < cap(s.slots); i++ {
		<-s.slots
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var ep ErrorPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Kind != "overloaded" {
		t.Errorf("kind = %q, want overloaded", ep.Kind)
	}
}

func TestHTTPHealthAndReadiness(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	h := NewHandler(s)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	// The readiness body carries the structured detail the fleet
	// router's probe parses: ready, draining, and the per-engine
	// breaker summary — no /metrics scrape needed.
	type readiness struct {
		Ready    bool   `json:"ready"`
		Reason   string `json:"reason"`
		Draining bool   `json:"draining"`
		Breakers []struct {
			Engine string `json:"engine"`
			State  string `json:"state"`
		} `json:"breakers"`
	}
	readyRec := get("/readyz")
	if readyRec.Code != http.StatusOK {
		t.Fatalf("readyz before drain = %d", readyRec.Code)
	}
	var rd readiness
	if err := json.Unmarshal(readyRec.Body.Bytes(), &rd); err != nil {
		t.Fatal(err)
	}
	if !rd.Ready || rd.Draining {
		t.Errorf("ready readyz = %+v, want ready and not draining", rd)
	}
	if len(rd.Breakers) != 3 {
		t.Errorf("readyz reports %d breakers, want 3", len(rd.Breakers))
	}
	for _, b := range rd.Breakers {
		if b.Engine == "" || b.State != "closed" {
			t.Errorf("readyz breaker %+v, want a named closed breaker", b)
		}
	}
	rec := get("/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var hl Health
	if err := json.Unmarshal(rec.Body.Bytes(), &hl); err != nil {
		t.Fatal(err)
	}
	if len(hl.Engines) != 3 {
		t.Errorf("health reports %d engines, want 3", len(hl.Engines))
	}
	for _, e := range hl.Engines {
		if e.State != "closed" {
			t.Errorf("engine %s starts %s, want closed", e.Engine, e.State)
		}
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = get("/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("draining readyz without Retry-After")
	}
	rd = readiness{}
	if err := json.Unmarshal(rec.Body.Bytes(), &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Ready || !rd.Draining || rd.Reason != "draining" {
		t.Errorf("draining readyz = %+v, want draining detail", rd)
	}
	if len(rd.Breakers) != 3 {
		t.Errorf("draining readyz reports %d breakers, want 3", len(rd.Breakers))
	}
	// healthz keeps answering during the drain: it is how the operator
	// watches the drain complete.
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200", rec.Code)
	}
}

func TestKindOfTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		kind string
	}{
		{nil, ""},
		{ErrBadRequest, "bad-request"},
		{ErrInjectionDisabled, "injection-disabled"},
		{ErrOverloaded, "overloaded"},
		{ErrDraining, "draining"},
		{guard.ErrBreakerOpen, "breaker-open"},
		{guard.ErrBudgetExceeded, "budget"},
		{context.DeadlineExceeded, "deadline"},
		{guard.ErrCanceled, "canceled"},
		{guard.ErrEngineFailed, "engine"},
		{errors.New("mystery"), "internal"},
		// Budget-caused engine failure reports the budget, like sdftool.
		{errors.Join(guard.ErrEngineFailed, guard.ErrBudgetExceeded), "budget"},
		// A hedged failure joining a gated engine with a substantive
		// failure classifies by the substantive failure: "retry later"
		// is wrong advice when the engines that ran hit a budget or a
		// model precondition.
		{errors.Join(guard.ErrBreakerOpen, guard.ErrBudgetExceeded), "budget"},
		{errors.Join(guard.ErrBreakerOpen, context.DeadlineExceeded), "deadline"},
		// All paths shed: genuinely unavailable.
		{errors.Join(guard.ErrBreakerOpen, guard.ErrEngineFailed), "breaker-open"},
	}
	for _, c := range cases {
		if got := KindOf(c.err); got != c.kind {
			t.Errorf("KindOf(%v) = %q, want %q", c.err, got, c.kind)
		}
	}
}

func TestStatusOfRetryable(t *testing.T) {
	cases := map[string]int{
		"bad-request":        400,
		"injection-disabled": 403,
		"overloaded":         429,
		"draining":           503,
		"breaker-open":       503,
		"precondition":       422,
		"budget":             422,
		"deadline":           504,
		"canceled":           504,
		"certificate":        500,
		"disagreement":       500,
		"engine":             500,
		"internal":           500,
	}
	for kind, want := range cases {
		if got := StatusOf(kind); got != want {
			t.Errorf("StatusOf(%s) = %d, want %d", kind, got, want)
		}
	}
	for _, kind := range []string{"overloaded", "draining", "breaker-open"} {
		if !retryable(kind) {
			t.Errorf("%s not retryable", kind)
		}
	}
	if retryable("engine") {
		t.Error("engine retryable")
	}
}
