package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/sdfio"
)

// batchBody marshals a batch payload for the wire-level tests.
func batchBody(t *testing.T, p BatchRequestPayload) string {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBatchPartialFailureIsolation is the acceptance scenario of batch
// serving, in-process: a batch holding a panicking item, a
// budget-exploding item, a structurally malformed item and three healthy
// graphs yields exactly three verified answers and exactly three
// per-item error entries with the right kinds — in request order, with
// no batch-wide failure.
func TestBatchPartialFailureIsolation(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{AllowInjection: true})
	defer s.Close()

	explosive, err := gen.ExponentialChain(30)
	if err != nil {
		t.Fatal(err)
	}
	explosiveText := sdfio.TextString(explosive)

	fig2 := graphTextOf(t, "figure2")
	payload := BatchRequestPayload{
		DeadlineMS: 30_000,
		Items: []RequestPayload{
			{GraphText: fig2, Method: "hedged"},
			// Panics at every statespace checkpoint: the engine fails,
			// the item reports it, nothing else notices.
			{GraphText: fig2, Method: "statespace",
				Inject: []InjectPayload{{Engine: "statespace", Mode: "panic", Times: -1}}},
			{GraphText: fig2, Method: "matrix"},
			// Explodes its tiny work budget before producing an answer.
			{GraphText: explosiveText, Method: "hedged", Budget: 1000},
			// Structurally malformed: fails the wire decode, never runs.
			{GraphText: "sdf broken\nactor"},
			{GraphText: fig2, Method: "hsdf"},
		},
	}
	breq, err := DecodeBatchRequest([]byte(batchBody(t, payload)))
	if err != nil {
		t.Fatalf("DecodeBatchRequest: %v", err)
	}
	res, err := s.AnalyzeBatch(context.Background(), breq)
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}

	if res.Kind != "partial" || res.OK != 3 || res.Errors != 3 {
		t.Fatalf("batch = kind %q ok %d errors %d, want partial 3 3", res.Kind, res.OK, res.Errors)
	}
	if len(res.Items) != len(payload.Items) {
		t.Fatalf("got %d entries, want %d", len(res.Items), len(payload.Items))
	}
	wantKinds := map[int]string{1: "engine", 3: "budget", 4: "bad-request"}
	for i, it := range res.Items {
		if it.Index != i {
			t.Errorf("entry %d carries index %d; results must come back in request order", i, it.Index)
		}
		if kind, bad := wantKinds[i]; bad {
			if it.Status != "item-error" || it.Error == nil || it.Error.Kind != kind {
				t.Errorf("item %d = status %q error %+v, want item-error kind %q", i, it.Status, it.Error, kind)
			}
			continue
		}
		if it.Status != "ok" || it.Error != nil || it.Result == nil {
			t.Fatalf("item %d = status %q error %+v, want ok", i, it.Status, it.Error)
		}
		if !it.Result.Verified || it.Result.Certificate == "" || it.Result.Period == "" {
			t.Errorf("item %d answered without a checkable certificate: %+v", i, it.Result)
		}
		if it.Graph != "figure2" {
			t.Errorf("item %d graph = %q, want figure2", i, it.Graph)
		}
	}
}

// TestBatchComplete: a batch of only healthy items is "complete" with
// every entry verified.
func TestBatchComplete(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	fig2 := graphTextOf(t, "figure2")
	breq, err := DecodeBatchRequest([]byte(batchBody(t, BatchRequestPayload{
		Items: []RequestPayload{
			{GraphText: fig2, Method: "hedged"},
			{GraphText: fig2, Method: "matrix"},
		},
	})))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.AnalyzeBatch(context.Background(), breq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "complete" || res.OK != 2 || res.Errors != 0 {
		t.Fatalf("batch = kind %q ok %d errors %d, want complete 2 0", res.Kind, res.OK, res.Errors)
	}
	for i, it := range res.Items {
		if it.Status != "ok" || it.Result == nil || !it.Result.Verified {
			t.Errorf("item %d = %+v, want a verified ok entry", i, it)
		}
	}
}

// TestDecodeBatchRequest pins the split between batch-level refusals and
// per-item isolation.
func TestDecodeBatchRequest(t *testing.T) {
	fig2 := graphTextOf(t, "figure2")

	t.Run("per-item isolation", func(t *testing.T) {
		breq, err := DecodeBatchRequest([]byte(
			`{"items":[{"graph_text":` + string(mustJSON(t, fig2)) + `},{"graph_text":"sdf x\nbogus"},{"method":"oracle"}]}`))
		if err != nil {
			t.Fatalf("batch-level error for item failures: %v", err)
		}
		if breq.Items[0].Err != nil || breq.Items[0].Req == nil {
			t.Errorf("healthy item decoded to %+v", breq.Items[0])
		}
		for i := 1; i < 3; i++ {
			if breq.Items[i].Err == nil || breq.Items[i].Req != nil {
				t.Errorf("broken item %d decoded to %+v, want per-item error", i, breq.Items[i])
			}
			if KindOf(breq.Items[i].Err) != "bad-request" {
				t.Errorf("broken item %d kind = %q", i, KindOf(breq.Items[i].Err))
			}
		}
	})

	t.Run("batch-level refusals", func(t *testing.T) {
		for name, body := range map[string]string{
			"not json":      `{`,
			"trailing":      `{"items":[{"graph_text":"x"}]} {}`,
			"empty":         `{"items":[]}`,
			"no items":      `{}`,
			"neg deadline":  `{"items":[{"graph_text":"x"}],"deadline_ms":-1}`,
			"unknown field": `{"items":[],"bogus":1}`,
		} {
			if _, err := DecodeBatchRequest([]byte(body)); err == nil || KindOf(err) != "bad-request" {
				t.Errorf("%s: err = %v, want a bad-request batch refusal", name, err)
			}
		}
		big := make([]byte, MaxBatchRequestBytes+1)
		if _, err := DecodeBatchRequest(big); err == nil || KindOf(err) != "too-large" {
			t.Errorf("oversized batch: KindOf = %q, want too-large", KindOf(err))
		}
		items := `{"graph_text":"x"}`
		over := `{"items":[` + items + strings.Repeat(","+items, maxBatchItems) + `]}`
		if _, err := DecodeBatchRequest([]byte(over)); err == nil || KindOf(err) != "bad-request" {
			t.Errorf("item-count overflow: err = %v, want bad-request", err)
		}
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPlanBatchOrdering: failed items sort first (their error entries
// are free), then real work cheapest-first so a blown deadline strands
// the fewest answers.
func TestPlanBatchOrdering(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()

	breq := &BatchRequest{Items: []BatchItem{
		{Req: figure2Request(t, "matrix")},
		{Err: ErrBadRequest},
		{Req: figure2Request(t, "hedged")},
	}}
	plan := s.planBatch(breq)
	if len(plan) != 3 {
		t.Fatalf("plan has %d items", len(plan))
	}
	if plan[0].index != 1 || plan[0].err == nil || plan[0].cost != 0 {
		t.Errorf("plan[0] = index %d err %v cost %d, want the failed item first at zero cost",
			plan[0].index, plan[0].err, plan[0].cost)
	}
	if plan[1].cost <= 0 || plan[2].cost < plan[1].cost {
		t.Errorf("costs = %d then %d, want ascending positive", plan[1].cost, plan[2].cost)
	}
	for _, pi := range plan[1:] {
		if pi.err != nil {
			t.Errorf("healthy item %d planned with error %v", pi.index, pi.err)
		}
	}
}

// TestCarveBudget pins the deadline-carving arithmetic.
func TestCarveBudget(t *testing.T) {
	cases := []struct {
		remaining time.Duration
		left      int
		workers   int
		want      time.Duration
	}{
		// 10 items over 2 workers = 5 waves of the 1s window.
		{time.Second, 10, 2, 200 * time.Millisecond},
		// One wave: the whole window.
		{time.Second, 4, 8, time.Second},
		// The floor keeps microscopic slices from thrashing...
		{time.Second, 1000, 1, batchItemFloor},
		// ...but never exceeds the window that is actually left.
		{10 * time.Millisecond, 100, 1, 10 * time.Millisecond},
		{0, 5, 4, 0},
		{-time.Second, 5, 4, 0},
		// Degenerate inputs clamp instead of dividing by zero.
		{time.Second, 0, 0, time.Second},
	}
	for _, c := range cases {
		if got := carveBudget(c.remaining, c.left, c.workers); got != c.want {
			t.Errorf("carveBudget(%v, %d, %d) = %v, want %v", c.remaining, c.left, c.workers, got, c.want)
		}
	}
}

// TestItemStatusAndBatchKind pins the batch wire vocabulary the sdfvet
// kindmap check cross-references against sdftool's exit-code table.
func TestItemStatusAndBatchKind(t *testing.T) {
	if got := ItemStatusOf(nil, ErrBadRequest); got != "item-error" {
		t.Errorf("ItemStatusOf(err) = %q", got)
	}
	if got := ItemStatusOf(nil, nil); got != "item-error" {
		t.Errorf("ItemStatusOf(nil result) = %q", got)
	}
	if got := ItemStatusOf(&ResultPayload{Degradation: "bounded"}, nil); got != "bounded" {
		t.Errorf("ItemStatusOf(bounded) = %q", got)
	}
	if got := ItemStatusOf(&ResultPayload{Degradation: "stale-cache"}, nil); got != "degraded" {
		t.Errorf("ItemStatusOf(stale) = %q", got)
	}
	if got := ItemStatusOf(&ResultPayload{}, nil); got != "ok" {
		t.Errorf("ItemStatusOf(ok) = %q", got)
	}
	if got := BatchKindOf([]BatchItemResult{{}, {Error: &ErrorPayload{}}}); got != "partial" {
		t.Errorf("BatchKindOf(with error) = %q", got)
	}
	if got := BatchKindOf([]BatchItemResult{{}, {}}); got != "complete" {
		t.Errorf("BatchKindOf(clean) = %q", got)
	}
}

// TestHTTPBatch drives the wire surface: a mixed batch is always HTTP
// 200 with the X-SDF-Batch header naming the kind; batch-level refusals
// keep their usual statuses.
func TestHTTPBatch(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	h := NewHandler(s)

	fig2 := graphTextOf(t, "figure2")
	rec := postJSON(t, h, "/v1/batch", batchBody(t, BatchRequestPayload{
		Items: []RequestPayload{
			{GraphText: fig2},
			{GraphText: "sdf broken\nactor"},
		},
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed batch status = %d, want 200 (body %s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-SDF-Batch"); got != "partial" {
		t.Errorf("X-SDF-Batch = %q, want partial", got)
	}
	var res BatchResultPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != "partial" || res.OK != 1 || res.Errors != 1 {
		t.Errorf("batch = %q ok %d errors %d, want partial 1 1", res.Kind, res.OK, res.Errors)
	}

	rec = postJSON(t, h, "/v1/batch", `{"items":[]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", rec.Code)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = postJSON(t, h, "/v1/batch", batchBody(t, BatchRequestPayload{
		Items: []RequestPayload{{GraphText: fig2}},
	}))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining batch status = %d, want 503", rec.Code)
	}
	var ep ErrorPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Kind != "draining" {
		t.Errorf("draining kind = %q", ep.Kind)
	}
}
