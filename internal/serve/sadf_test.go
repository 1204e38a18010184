package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rat"
	"repro/internal/sdfio"
)

// sadfModelText is the two-scenario quickstart model: a producer ring
// A⇄B with one token per direction, run in a cheap scenario lo
// (A=1, B=2) and an expensive one hi (A=5, B=3), FSM free to stay in or
// switch between them. The ring holds two tokens, so the worst-case
// period is the hi scenario's cycle mean (5+3)/2 = 4.
const sadfModelText = `sadf wlan
scenario lo
actor A 1
actor B 2
chan A B 1 1 1
chan B A 1 1 1
scenario hi
actor A 5
actor B 3
chan A B 1 1 1
chan B A 1 1 1
state slo lo
state shi hi
trans slo shi
trans shi slo
trans slo slo
trans shi shi
initial slo
`

func sadfRequestOf(t *testing.T, text string) *SADFRequest {
	t.Helper()
	body, err := json.Marshal(SADFRequestPayload{ModelText: text})
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeSADFRequest(body)
	if err != nil {
		t.Fatalf("DecodeSADFRequest: %v", err)
	}
	return req
}

// TestSADFServeExact is the in-process happy path: a two-scenario model
// answers with the certified worst-case period, the certificate
// re-checks against an independent parse of the model, and the second
// identical request is a cache hit.
func TestSADFServeExact(t *testing.T) {
	defer noLeaks(t)
	reg := obs.New()
	s := New(Options{Obs: reg})
	defer s.Close()

	req := sadfRequestOf(t, sadfModelText)
	res, err := s.AnalyzeSADF(context.Background(), req)
	if err != nil {
		t.Fatalf("AnalyzeSADF: %v", err)
	}
	if res.Unbounded || res.Period != "4" || res.PeriodNum != 4 || res.PeriodDen != 1 {
		t.Fatalf("period = %q (%d/%d, unbounded=%v), want 4",
			res.Period, res.PeriodNum, res.PeriodDen, res.Unbounded)
	}
	if !res.Verified || res.Cert == nil || res.Certificate == "" {
		t.Fatalf("answer not certified: verified=%v cert=%v", res.Verified, res.Cert)
	}
	if res.Scenarios != 2 || res.States != 2 || res.Tokens != 2 {
		t.Errorf("shape = %d scenarios %d states %d tokens, want 2 2 2", res.Scenarios, res.States, res.Tokens)
	}
	if res.AutomatonNodes != 4 {
		t.Errorf("automaton nodes = %d, want 2 states × 2 tokens = 4", res.AutomatonNodes)
	}
	if len(res.Critical) == 0 {
		t.Errorf("no critical states reported")
	}

	// The client-side check: rebuild the certificate from the wire
	// payload against an independent parse of the same model and
	// re-verify — exactly what sdftool -verify does behind the fleet.
	m, err := sdfio.ParseSADFText(sadfModelText)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := res.Cert.Cert(m)
	if err != nil {
		t.Fatalf("rebuilding certificate from payload: %v", err)
	}
	graphs, err := res.Cert.CertGraphs(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Check(context.Background(), graphs); err != nil {
		t.Fatalf("rebuilt certificate rejected: %v", err)
	}
	if !cert.Period.Equal(rat.FromInt(4)) {
		t.Errorf("rebuilt certificate period = %v, want 4", cert.Period)
	}

	// Identical request → cache hit, still verified (render re-checks).
	res2, err := s.AnalyzeSADF(context.Background(), sadfRequestOf(t, sadfModelText))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached || !res2.Verified || res2.Period != "4" {
		t.Errorf("second answer = cached %v verified %v period %q, want a verified cache hit",
			res2.Cached, res2.Verified, res2.Period)
	}
	if got := reg.Counter(obs.MetricSADFRequests, "outcome", "served").Value(); got != 2 {
		t.Errorf("served counter = %d, want 2", got)
	}
	if got := reg.Counter(obs.MetricSADFAutomatonNodes).Value(); got != 4 {
		t.Errorf("automaton nodes counter = %d, want 4 (analysed once, cached once)", got)
	}
}

// TestSADFErrorKinds pins the sadf error taxonomy: structural model
// errors are sadf-model (400), scenario graphs failing analysis
// preconditions are sadf-scenario (422), transport errors keep the
// shared kinds.
func TestSADFErrorKinds(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()

	// Unknown scenario reference: a structural model error.
	_, err := DecodeSADFRequest([]byte(`{"model_text":"sadf x\nscenario a\nactor A 1\nchan A A 1 1 1\nstate s nosuch\ninitial s\n"}`))
	if kind := KindOf(err); kind != "sadf-model" || StatusOf(kind) != http.StatusBadRequest {
		t.Errorf("dangling scenario ref: kind %q status %d, want sadf-model 400", kind, StatusOf(kind))
	}

	// Rate-inconsistent scenario: passes model validation (structure is
	// fine) but fails the analysis precheck.
	req := sadfRequestOf(t, `sadf bad
scenario a
actor A 1
actor B 1
chan A B 2 1 1
chan B A 1 1 1
state s a
trans s s
initial s
`)
	_, err = s.AnalyzeSADF(context.Background(), req)
	if kind := KindOf(err); kind != "sadf-scenario" || StatusOf(kind) != http.StatusUnprocessableEntity {
		t.Errorf("inconsistent scenario: err %v kind %q, want sadf-scenario 422", err, kind)
	}

	// Transport-shape failures stay bad-request.
	for name, body := range map[string]string{
		"no model":    `{}`,
		"both":        `{"model_text":"x","model":{}}`,
		"bad json":    `{`,
		"neg timeout": `{"model_text":"x","timeout_ms":-1}`,
	} {
		if _, err := DecodeSADFRequest([]byte(body)); KindOf(err) != "bad-request" {
			t.Errorf("%s: kind = %q, want bad-request", name, KindOf(err))
		}
	}
}

// TestHTTPSADF drives the wire surface end to end: POST /v1/sadf
// answers 200 with a payload whose certificate a client can rebuild and
// re-check; a broken model is a 400 with kind sadf-model.
func TestHTTPSADF(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	h := NewHandler(s)

	body, err := json.Marshal(SADFRequestPayload{ModelText: sadfModelText})
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, h, "/v1/sadf", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %s)", rec.Code, rec.Body)
	}
	var res SADFResultPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Period != "4" || !res.Verified || res.Cert == nil {
		t.Fatalf("wire answer = %+v, want verified period 4 with certificate", res)
	}
	m, err := sdfio.ParseSADFText(sadfModelText)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := res.Cert.Cert(m)
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := res.Cert.CertGraphs(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Check(context.Background(), graphs); err != nil {
		t.Fatalf("wire certificate rejected after JSON round trip: %v", err)
	}

	rec = postJSON(t, h, "/v1/sadf", `{"model_text":"sadf broken\nscenario"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("broken model status = %d, want 400", rec.Code)
	}
	var ep ErrorPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Kind != "sadf-model" {
		t.Errorf("broken model kind = %q, want sadf-model", ep.Kind)
	}
}

// TestSADFDegradedLadder walks the brownout ladder: at LevelBounded a
// fresh model gets the certified-by-construction per-scenario-worst
// bound (serial makespan above, self-loop period floor below, never
// marked Verified); an exact-only request is refused; at LevelShed a
// previously cached exact answer is served stale while a cold key is
// shed.
func TestSADFDegradedLadder(t *testing.T) {
	defer noLeaks(t)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := New(Options{CacheTTL: time.Second})
	defer s.Close()
	s.cache.now = clk.Now

	forceLevel(s, LevelBounded)
	res, err := s.AnalyzeSADF(context.Background(), sadfRequestOf(t, sadfModelText))
	if err != nil {
		t.Fatalf("bounded answer: %v", err)
	}
	if res.Degradation != "bounded" || res.Verified {
		t.Fatalf("bounded answer = degradation %q verified %v", res.Degradation, res.Verified)
	}
	// Upper: hi's serial makespan 5+3 = 8 covers the true period 4. No
	// lower bound: the ring has no delayed channel self-loop, so the
	// only sound cheap floor is the degenerate zero, which is omitted.
	if res.Period != "8" {
		t.Errorf("bounded upper = %q, want serial makespan 8", res.Period)
	}
	if res.PeriodLower != "" {
		t.Errorf("bounded lower = %q for a model with no self-loop floor, want none", res.PeriodLower)
	}

	// A model with a delayed channel self-loop gets the full enclosure:
	// scenario hi self-loops in the FSM, so its period floor (6) anchors
	// from below while its serial makespan (6) bounds from above.
	looped := sadfRequestOf(t, `sadf looped
scenario lo
actor A 1
chan A A 1 1 1
scenario hi
actor A 6
chan A A 1 1 1
state slo lo
state shi hi
trans slo shi
trans shi slo
trans shi shi
initial slo
`)
	res, err = s.AnalyzeSADF(context.Background(), looped)
	if err != nil {
		t.Fatalf("bounded answer (looped): %v", err)
	}
	if res.Degradation != "bounded" || res.Period != "6" || res.PeriodLower != "6" {
		t.Errorf("looped enclosure = [%q, %q] at %q, want [6, 6] bounded",
			res.PeriodLower, res.Period, res.Degradation)
	}
	lower, err := rat.New(res.PeriodLowerNum, res.PeriodLowerDen)
	if err != nil {
		t.Fatal(err)
	}
	if !lower.Equal(rat.FromInt(6)) {
		t.Errorf("looped lower = %v, want 6", lower)
	}

	// Exact-only refuses the degraded answer.
	exact := sadfRequestOf(t, sadfModelText)
	exact.ExactOnly = true
	if _, err := s.AnalyzeSADF(context.Background(), exact); KindOf(err) != "degraded" {
		t.Errorf("exact-only under brownout: err %v, want degraded", err)
	}

	// Warm the cache at full fidelity, expire it, then shed: the stale
	// exact answer still serves (marked stale), a cold model is shed.
	forceLevel(s, LevelExact)
	if _, err := s.AnalyzeSADF(context.Background(), sadfRequestOf(t, sadfModelText)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	forceLevel(s, LevelShed)
	res, err = s.AnalyzeSADF(context.Background(), sadfRequestOf(t, sadfModelText))
	if err != nil {
		t.Fatalf("stale serve under shed: %v", err)
	}
	if !res.Stale || res.Degradation != LevelStale.String() || !res.Verified {
		t.Errorf("stale answer = stale %v degradation %q verified %v", res.Stale, res.Degradation, res.Verified)
	}
	cold := sadfRequestOf(t, `sadf cold
scenario only
actor A 1
chan A A 1 1 1
state s only
trans s s
initial s
`)
	if _, err := s.AnalyzeSADF(context.Background(), cold); KindOf(err) != "degraded" {
		t.Errorf("cold key under shed: err %v, want degraded refusal", err)
	}
}

// TestBatchCrossItemDedup: identical canonical keys inside one batch
// analyse once; duplicates are filled from the leader's answer, marked
// Deduped, and counted on the dedup metric.
func TestBatchCrossItemDedup(t *testing.T) {
	defer noLeaks(t)
	reg := obs.New()
	s := New(Options{Obs: reg})
	defer s.Close()

	fig2 := graphTextOf(t, "figure2")
	breq, err := DecodeBatchRequest([]byte(batchBody(t, BatchRequestPayload{
		Items: []RequestPayload{
			{GraphText: fig2, Method: "matrix"},
			{GraphText: fig2, Method: "hsdf"},   // different key: no dedup
			{GraphText: fig2, Method: "matrix"}, // duplicate of item 0
			{GraphText: fig2, Method: "matrix"}, // duplicate of item 0
		},
	})))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.AnalyzeBatch(context.Background(), breq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "complete" || res.OK != 4 {
		t.Fatalf("batch = %q ok %d errors %d, want complete 4 0", res.Kind, res.OK, res.Errors)
	}
	for i, it := range res.Items {
		if it.Status != "ok" || it.Result == nil || !it.Result.Verified {
			t.Fatalf("item %d = %+v, want a verified ok entry", i, it)
		}
	}
	if res.Items[0].Result.Deduped || res.Items[1].Result.Deduped {
		t.Errorf("leader entries marked deduped")
	}
	for _, i := range []int{2, 3} {
		if !res.Items[i].Result.Deduped {
			t.Errorf("item %d not marked deduped", i)
		}
		if res.Items[i].Result.Period != res.Items[0].Result.Period {
			t.Errorf("item %d period %q differs from its leader's %q",
				i, res.Items[i].Result.Period, res.Items[0].Result.Period)
		}
	}
	if got := reg.Counter(obs.MetricBatchDedupItems).Value(); got != 2 {
		t.Errorf("dedup counter = %d, want 2", got)
	}
	if got := reg.Counter(obs.MetricBatchItems, "status", "ok").Value(); got != 4 {
		t.Errorf("item counter = %d, want all 4 items counted", got)
	}
}
