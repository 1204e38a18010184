package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/obs"
)

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// sampleValue finds the first parsed sample matching name and every
// given label pair, returning ok=false when absent.
func sampleValue(samples []obs.Sample, name string, kv ...string) (float64, bool) {
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		return s.Value, true
	}
	return 0, false
}

// TestHTTPMetricsSurface drives two identical requests through a server
// built with a registry and asserts the whole surface: request and
// cache counters on /metrics, histogram series per engine, expvar JSON
// on /debug/vars and the event ring on /debug/events.
func TestHTTPMetricsSurface(t *testing.T) {
	defer noLeaks(t)
	reg := obs.New()
	reg.EnableEvents(64)
	s := New(Options{Obs: reg})
	defer s.Close()
	h := NewHandler(s)

	for i := 0; i < 2; i++ {
		if rec := postJSON(t, h, "/v1/throughput", requestBody(t, "hedged")); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d, body %s", i, rec.Code, rec.Body)
		}
	}

	rec := getPath(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content type = %q", ct)
	}
	samples, err := obs.ParseText(rec.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if v, ok := sampleValue(samples, obs.MetricRequests, "outcome", "served"); !ok || v != 2 {
		t.Errorf("served requests = %v (ok=%v), want 2", v, ok)
	}
	if v, ok := sampleValue(samples, obs.MetricCacheEvents, "event", "miss"); !ok || v != 1 {
		t.Errorf("cache misses = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := sampleValue(samples, obs.MetricCacheEvents, "event", "hit"); !ok || v != 1 {
		t.Errorf("cache hits = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := sampleValue(samples, obs.MetricRequestSeconds+"_count", "method", "hedged"); !ok || v != 2 {
		t.Errorf("request histogram count = %v (ok=%v), want 2", v, ok)
	}
	// Only the first request computed; the winner's engine series must
	// show at least one observation.
	if v, ok := sampleValue(samples, obs.MetricEngineSeconds+"_count"); !ok || v < 1 {
		t.Errorf("engine histogram count = %v (ok=%v), want >= 1", v, ok)
	}
	if _, ok := sampleValue(samples, obs.MetricEngineAttempts, "engine", "matrix"); !ok {
		t.Error("no matrix engine attempt counter")
	}
	if _, ok := sampleValue(samples, obs.MetricSpanSeconds+"_count", "span", "analysis.precheck"); !ok {
		t.Error("no precheck span series")
	}

	rec = getPath(t, h, "/debug/vars")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", rec.Code)
	}
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars lacks memstats")
	}

	rec = getPath(t, h, "/debug/events")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/events status = %d", rec.Code)
	}
	var evs struct {
		Total  int64       `json:"total"`
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	if evs.Total == 0 || len(evs.Events) == 0 {
		t.Errorf("event ring empty: total=%d events=%d", evs.Total, len(evs.Events))
	}
}

// TestHTTPMetricsWithoutRegistry: the observability endpoints 404 on a
// server built without a registry, and analysis is unaffected — the
// nil-registry no-op contract end to end.
func TestHTTPMetricsWithoutRegistry(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	h := NewHandler(s)

	if rec := postJSON(t, h, "/v1/throughput", requestBody(t, "hedged")); rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/events"} {
		if rec := getPath(t, h, path); rec.Code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, rec.Code)
		}
	}
}

// TestHTTPEventsDisabled404: a registry without an armed ring keeps
// /debug/events 404 while /metrics works.
func TestHTTPEventsDisabled404(t *testing.T) {
	s := New(Options{Obs: obs.New()})
	defer s.Close()
	h := NewHandler(s)
	if rec := getPath(t, h, "/debug/events"); rec.Code != http.StatusNotFound {
		t.Errorf("/debug/events status = %d, want 404", rec.Code)
	}
	if rec := getPath(t, h, "/metrics"); rec.Code != http.StatusOK {
		t.Errorf("/metrics status = %d, want 200", rec.Code)
	}
}

// TestRetryAfterDerivation pins the derived Retry-After values: the
// drain hint is long, the breaker hint quotes the configured cooldown,
// and the overload hint scales with queue depth.
func TestRetryAfterDerivation(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1, Breaker: guard.BreakerOptions{Cooldown: 3 * time.Second}})
	defer s.Close()

	if got := s.retryAfter("draining"); got != drainRetryAfter {
		t.Errorf("draining hint = %d, want %d", got, drainRetryAfter)
	}
	if got := s.retryAfter("breaker-open"); got != 3 {
		t.Errorf("breaker-open hint = %d, want the 3s cooldown", got)
	}
	if got := s.retryAfter("overloaded"); got != 1 {
		t.Errorf("overloaded hint with empty queue = %d, want 1", got)
	}
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}
	if got := s.retryAfter("overloaded"); got != 3 {
		t.Errorf("overloaded hint with full queue = %d, want 1+2/1 = 3", got)
	}
	for i := 0; i < cap(s.slots); i++ {
		<-s.slots
	}
}

// TestHTTPRetryAfterValues asserts the two wire-visible values: a full
// queue answers 429 with the queue-derived hint and a draining server
// answers 503 with the drain hint, on both /v1/throughput and /readyz.
func TestHTTPRetryAfterValues(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{Workers: 1, QueueDepth: 1})
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
	// The refused request escalated the ladder to shed, so the hint is
	// the controller's drain estimate: 2 queued × 250ms fallback mean /
	// 1 worker, rounded up to 1s.
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("overloaded Retry-After = %q, want the 1s drain estimate", got)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = postJSON(t, h, "/v1/throughput", requestBody(t, "hedged"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "5" {
		t.Errorf("draining Retry-After = %q, want 5", got)
	}
	rec = getPath(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "5" {
		t.Errorf("draining readyz Retry-After = %q, want 5", got)
	}
}

// TestReadyzCacheDetail: the readiness body surfaces the cache traffic
// counters, including evictions.
func TestReadyzCacheDetail(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{CacheEntries: 1})
	defer s.Close()
	h := NewHandler(s)

	s.cache.put("a", &answer{engine: "matrix"})
	s.cache.put("b", &answer{engine: "matrix"}) // evicts a
	s.cache.get("b")
	s.cache.get("a")

	rec := getPath(t, h, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz status = %d", rec.Code)
	}
	var body struct {
		Ready bool `json:"ready"`
		Cache struct {
			Entries   int   `json:"entries"`
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !body.Ready {
		t.Error("not ready")
	}
	if body.Cache.Entries != 1 || body.Cache.Hits != 1 || body.Cache.Misses != 1 || body.Cache.Evictions != 1 {
		t.Errorf("cache detail = %+v, want 1 entry, 1 hit, 1 miss, 1 eviction", body.Cache)
	}
}

// TestCacheEvictionOrderAndCounts: eviction is strictly least recently
// used — a get refreshes recency — and every eviction is counted both
// in the local counter and the registry series.
func TestCacheEvictionOrderAndCounts(t *testing.T) {
	reg := obs.New()
	c := newResultCache(2, 0, reg)
	r := func(p string) *answer { return &answer{engine: p} }

	c.put("a", r("1"))
	c.put("b", r("2"))
	c.get("a")         // recency now a > b
	c.put("c", r("3")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b survived: eviction did not pick the least recently used entry")
	}
	c.put("d", r("4")) // recency c > a after the miss on b? no: get(b) missed, order unchanged (c, a) -> evicts a
	if _, ok := c.get("a"); ok {
		t.Error("a survived: eviction did not pick the least recently used entry")
	}
	for _, key := range []string{"c", "d"} {
		if _, ok := c.get(key); !ok {
			t.Errorf("%s missing", key)
		}
	}
	if got := c.evictions.Load(); got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
	if got := reg.Counter(obs.MetricCacheEvents, "event", "evict").Value(); got != 2 {
		t.Errorf("evict counter = %d, want 2", got)
	}
}

// TestSingleflightLeaderFailure: when the leader of a flight fails, the
// followers receive the leader's error — not a result, not a hang — and
// nothing is cached for the key.
func TestSingleflightLeaderFailure(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	req := &Request{Graph: gen.Figure2(), Method: "hedged"}
	key := req.Key()

	f, leader := s.flights.join(key)
	if !leader {
		t.Fatal("fresh key did not make this caller the leader")
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.dispatch(context.Background(), key, func() (*answer, error) {
			return nil, errors.New("the follower led the flight")
		})
		errc <- err
	}()
	// Wait until the follower has joined the flight before failing it.
	deadline := time.Now().Add(5 * time.Second)
	for s.flights.deduped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	boom := errors.New("leader exploded")
	s.flights.finish(key, f, nil, boom)
	if err := <-errc; !errors.Is(err, boom) {
		t.Fatalf("follower error = %v, want the leader's", err)
	}
	if _, ok := s.cache.get(key); ok {
		t.Error("a failed flight left an entry in the cache")
	}
	// The key is released: the next caller leads a fresh flight.
	if _, leader := s.flights.join(key); !leader {
		t.Error("key not released after the failed flight")
	}
}
