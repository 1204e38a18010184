package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rat"
)

// forceLevel pins the controller at a level and makes the de-escalation
// hold effectively infinite, so the analyze path observes the level the
// test chose regardless of the real queue depth.
func forceLevel(s *Server, l Level) {
	s.ctrl.mu.Lock()
	s.ctrl.level = l
	s.ctrl.hold = 24 * time.Hour
	s.ctrl.mu.Unlock()
}

// soleCacheKey returns the key of the cache's only entry.
func soleCacheKey(t *testing.T, s *Server) string {
	t.Helper()
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	if len(s.cache.entries) != 1 {
		t.Fatalf("cache has %d entries, want exactly 1", len(s.cache.entries))
	}
	for k := range s.cache.entries {
		return k
	}
	return ""
}

// TestControllerHysteresis drives the ladder with a fake clock:
// escalation is immediate at each occupancy threshold, de-escalation
// steps down one rung per completed hold period, and a spike
// mid-descent re-escalates instantly.
func TestControllerHysteresis(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := newController(1, 4, time.Second, 2*time.Second, nil)
	c.now = clk.Now

	steps := []struct {
		queued int
		want   Level
	}{
		{0, LevelExact},
		{2, LevelBounded}, // 2/4 hits the 1/2 threshold
		{3, LevelStale},   // 3/4 hits the 3/4 threshold
		{4, LevelShed},    // full house
	}
	for _, st := range steps {
		if got := c.update(st.queued); got != st.want {
			t.Fatalf("update(%d) = %s, want %s", st.queued, got, st.want)
		}
	}

	// The pressure is gone, but the ladder holds its level for the full
	// hold period, then descends one rung at a time.
	if got := c.update(0); got != LevelShed {
		t.Fatalf("instant de-escalation to %s", got)
	}
	clk.Advance(time.Second)
	if got := c.update(0); got != LevelShed {
		t.Fatalf("de-escalated after half the hold: %s", got)
	}
	clk.Advance(time.Second)
	if got := c.update(0); got != LevelStale {
		t.Fatalf("after a full hold: %s, want one rung down (stale-cache)", got)
	}
	clk.Advance(2 * time.Second)
	if got := c.update(0); got != LevelBounded {
		t.Fatalf("after the second hold: %s, want bounded", got)
	}

	// A new burst mid-descent snaps straight back up.
	if got := c.update(4); got != LevelShed {
		t.Fatalf("re-escalation = %s, want shed", got)
	}
}

// TestControllerLatencyBump: a p99 past the target browns out even with
// an empty queue — the queue is short because the work is long.
func TestControllerLatencyBump(t *testing.T) {
	c := newController(1, 100, 50*time.Millisecond, time.Second, nil)
	if got := c.update(0); got != LevelExact {
		t.Fatalf("idle level = %s", got)
	}
	for i := 0; i < latWindow; i++ {
		c.observe(100 * time.Millisecond)
	}
	if got := c.update(0); got != LevelBounded {
		t.Fatalf("level with p99 at 2x target = %s, want bounded", got)
	}
}

// TestRetryAfterByLevel is the table over the ladder: every degraded
// refusal quotes the controller's drain estimate (queued × mean /
// workers, rounded up), while an un-degraded overload keeps the static
// backlog heuristic.
func TestRetryAfterByLevel(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 7})
	defer s.Close()
	// A known signal: the recent mean latency is exactly 1s.
	for i := 0; i < latWindow; i++ {
		s.ctrl.observe(time.Second)
	}

	cases := []struct {
		level  Level
		kind   string
		queued int
		want   int
	}{
		{LevelExact, "overloaded", 2, 3},   // heuristic: 1 + 2/1
		{LevelExact, "overloaded", 8, 8},   // heuristic cap
		{LevelBounded, "degraded", 2, 2},   // 2 × 1s / 1 worker
		{LevelBounded, "overloaded", 3, 3}, // degraded server quotes drain time even for overload
		{LevelStale, "degraded", 5, 5},
		{LevelShed, "degraded", 8, 8},
	}
	for _, tc := range cases {
		forceLevel(s, tc.level)
		for i := 0; i < tc.queued; i++ {
			s.slots <- struct{}{}
		}
		got := s.retryAfter(tc.kind)
		for i := 0; i < tc.queued; i++ {
			<-s.slots
		}
		if got != tc.want {
			t.Errorf("level %s, kind %s, %d queued: Retry-After = %d, want %d",
				tc.level, tc.kind, tc.queued, got, tc.want)
		}
	}
}

// TestDegradedBoundedAnswer: at the bounded level a fresh request is
// answered by the brownout engine — a certified conservative period
// that the exact answer can never exceed — and the response carries the
// degradation marker plus Verified.
func TestDegradedBoundedAnswer(t *testing.T) {
	defer noLeaks(t)
	reg := obs.New()
	s := New(Options{Workers: 2, Obs: reg})
	defer s.Close()

	// The exact answer first, from a separate server so no cache entry
	// short-circuits the bounded path.
	ref := New(Options{Workers: 2})
	exact, err := ref.Analyze(context.Background(), figure2Request(t, "hedged"))
	ref.Close()
	if err != nil {
		t.Fatalf("exact reference: %v", err)
	}

	forceLevel(s, LevelBounded)
	res, err := s.Analyze(context.Background(), figure2Request(t, "hedged"))
	if err != nil {
		t.Fatalf("bounded analyze: %v", err)
	}
	if res.Degradation != "bounded" || res.Engine != "bounded" {
		t.Fatalf("degradation = %q, engine = %q, want bounded/bounded", res.Degradation, res.Engine)
	}
	if !res.Verified || res.Certificate == "" {
		t.Fatalf("bounded answer not verified (cert %q)", res.Certificate)
	}
	if res.Period == "" {
		t.Fatalf("bounded answer carries no period")
	}
	// Conservativeness on the wire: bounded period ≥ exact period.
	up, err := rat.New(res.PeriodNum, res.PeriodDen)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := rat.New(exact.PeriodNum, exact.PeriodDen)
	if err != nil {
		t.Fatal(err)
	}
	if up.Cmp(ex) < 0 {
		t.Fatalf("bounded period %v below the exact period %v", up, ex)
	}

	// The outcome counter ticked for the bounded level.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sampleValue(samples, obs.MetricDegraded, "level", "bounded"); !ok || v != 1 {
		t.Errorf("degraded{level=bounded} = %v (ok=%v), want 1", v, ok)
	}
}

// TestControllerGaugeAndEvents: a real transition moves the level gauge
// and leaves a transition event in the ring.
func TestControllerGaugeAndEvents(t *testing.T) {
	reg := obs.New()
	reg.EnableEvents(16)
	c := newController(1, 4, time.Second, 2*time.Second, reg)
	c.update(4) // exact → shed

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sampleValue(samples, obs.MetricDegradationLevel); !ok || v != float64(LevelShed) {
		t.Errorf("degradation level gauge = %v (ok=%v), want %d", v, ok, LevelShed)
	}
	events, _ := reg.Events()
	found := false
	for _, e := range events {
		if e.Name == "degrade.transition" {
			found = true
		}
	}
	if !found {
		t.Error("no degrade.transition event emitted")
	}
}

// TestDegradedFreshCacheHit: a fresh cache entry is full fidelity at
// any level — no degradation marker, no brownout engine.
func TestDegradedFreshCacheHit(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{Workers: 2})
	defer s.Close()
	if _, err := s.Analyze(context.Background(), figure2Request(t, "hedged")); err != nil {
		t.Fatal(err)
	}
	forceLevel(s, LevelShed)
	res, err := s.Analyze(context.Background(), figure2Request(t, "hedged"))
	if err != nil {
		t.Fatalf("shed level with a fresh cache entry refused: %v", err)
	}
	if !res.Cached || res.Degradation != "" || res.Stale {
		t.Fatalf("fresh hit rendered as cached=%v degradation=%q stale=%v", res.Cached, res.Degradation, res.Stale)
	}
}

// TestExactOnlyRefusal: exactOnly converts a degraded answer into an
// ErrDegraded refusal that maps to 429 + Retry-After.
func TestExactOnlyRefusal(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{Workers: 2})
	defer s.Close()
	forceLevel(s, LevelBounded)

	req := figure2Request(t, "hedged")
	req.ExactOnly = true
	_, err := s.Analyze(context.Background(), req)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	if kind := KindOf(err); kind != "degraded" {
		t.Fatalf("kind = %q, want degraded", kind)
	}
	if status := StatusOf("degraded"); status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", status)
	}
	if !retryable("degraded") {
		t.Fatal("degraded refusals must carry Retry-After")
	}

	// At the exact level the same request sails through.
	forceLevel(s, LevelExact)
	if _, err := s.Analyze(context.Background(), req); err != nil {
		t.Fatalf("exactOnly at exact level: %v", err)
	}
}

// TestShedRefusesWithoutCache: at shed with nothing cached, the request
// is refused as degraded (a 429, never a 5xx).
func TestShedRefusesWithoutCache(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{Workers: 2})
	defer s.Close()
	forceLevel(s, LevelShed)
	_, err := s.Analyze(context.Background(), figure2Request(t, "hedged"))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
}

// TestStaleServeAndRefresh: past the TTL the entry stops answering the
// exact path but stale-serves at the stale-cache level, marked stale
// and still lifted + verified; the background refresh then restores a
// fresh entry without leaking its goroutine.
func TestStaleServeAndRefresh(t *testing.T) {
	defer noLeaks(t)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := New(Options{Workers: 2, CacheTTL: time.Second})
	defer s.Close()
	s.cache.now = clk.Now

	if _, err := s.Analyze(context.Background(), figure2Request(t, "hedged")); err != nil {
		t.Fatal(err)
	}
	key := soleCacheKey(t, s)
	clk.Advance(2 * time.Second)

	// Expired now: the exact path misses...
	if _, ok := s.cache.get(key); ok {
		t.Fatal("expired entry answered the exact path")
	}
	// ...but the stale-cache level serves it.
	forceLevel(s, LevelStale)
	res, err := s.Analyze(context.Background(), figure2Request(t, "hedged"))
	if err != nil {
		t.Fatalf("stale serve: %v", err)
	}
	if !res.Stale || res.Degradation != "stale-cache" || !res.Cached {
		t.Fatalf("stale=%v degradation=%q cached=%v", res.Stale, res.Degradation, res.Cached)
	}
	if !res.Verified {
		t.Fatal("stale answer lost its verified certificate")
	}

	// The refresh lands a fresh entry and its goroutine exits.
	s.refreshWG.Wait()
	if _, ok := s.cache.get(key); !ok {
		t.Fatal("refresh did not restore a fresh entry")
	}
	res, err = s.Analyze(context.Background(), figure2Request(t, "hedged"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stale || res.Degradation != "" {
		t.Fatalf("post-refresh answer still stale (%q)", res.Degradation)
	}
}

// TestStaleRefreshSingleflight: refreshers behind stale hits dedupe
// against an identical in-flight computation — three stale serves spawn
// three refreshers, all of which observe the flight leader and exit
// without recomputing.
func TestStaleRefreshSingleflight(t *testing.T) {
	defer noLeaks(t)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := New(Options{Workers: 2, CacheTTL: time.Second})
	defer s.Close()
	s.cache.now = clk.Now

	if _, err := s.Analyze(context.Background(), figure2Request(t, "hedged")); err != nil {
		t.Fatal(err)
	}
	key := soleCacheKey(t, s)
	clk.Advance(2 * time.Second)
	forceLevel(s, LevelStale)

	// Occupy the flight: an identical computation is "already running".
	f, leader := s.flights.join(key)
	if !leader {
		t.Fatal("flight for the cached key unexpectedly occupied")
	}
	before := s.flights.deduped.Load()
	for i := 0; i < 3; i++ {
		res, err := s.Analyze(context.Background(), figure2Request(t, "hedged"))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stale {
			t.Fatal("want a stale answer while the refresh key is in flight")
		}
	}
	// All refreshers must exit behind the leader without computing;
	// this would deadlock (and the test time out) if any waited.
	done := make(chan struct{})
	go func() {
		s.refreshWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("refreshers did not exit behind the in-flight leader")
	}
	if got := s.flights.deduped.Load() - before; got != 3 {
		t.Fatalf("deduped refreshers = %d, want 3", got)
	}
	s.flights.finish(key, f, nil, errors.New("abandoned by test"))
}

// TestStaleEvictionOrdering: expired entries remain stale-servable
// until capacity eviction reclaims them — eviction, not expiry, is
// what removes an entry.
func TestStaleEvictionOrdering(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := newResultCache(1, time.Second, nil)
	c.now = clk.Now

	c.put("a", &answer{engine: "x"})
	clk.Advance(2 * time.Second)
	if _, ok := c.get("a"); ok {
		t.Fatal("expired entry answered get")
	}
	if res, stale, ok := c.getStale("a"); !ok || !stale || res.engine != "x" {
		t.Fatalf("expired entry must stale-serve: ok=%v stale=%v", ok, stale)
	}
	// Capacity pressure is what finally removes it.
	c.put("b", &answer{engine: "y"})
	if _, _, ok := c.getStale("a"); ok {
		t.Fatal("evicted entry still stale-served")
	}
	if res, stale, ok := c.getStale("b"); !ok || stale || res.engine != "y" {
		t.Fatalf("fresh entry misreported: ok=%v stale=%v", ok, stale)
	}
}

// TestHTTPDegradation: the wire surface of the ladder — the degradation
// marker rides both the body and the X-SDF-Degradation header, an
// exact_only request 429s with Retry-After, and /readyz reports the
// level.
func TestHTTPDegradation(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{Workers: 2})
	defer s.Close()
	h := NewHandler(s)
	forceLevel(s, LevelBounded)

	body, err := json.Marshal(RequestPayload{GraphText: graphTextOf(t, "figure2")})
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, h, "/v1/throughput", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("bounded answer status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-SDF-Degradation"); got != "bounded" {
		t.Fatalf("X-SDF-Degradation = %q, want bounded", got)
	}
	var res ResultPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Degradation != "bounded" || !res.Verified {
		t.Fatalf("payload degradation = %q verified = %v", res.Degradation, res.Verified)
	}

	body, err = json.Marshal(RequestPayload{GraphText: graphTextOf(t, "figure2"), Method: "matrix", ExactOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	rec = postJSON(t, h, "/v1/throughput", string(body))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("exact_only status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("exact_only refusal missing Retry-After")
	}
	var ep ErrorPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Kind != "degraded" {
		t.Fatalf("kind = %q, want degraded", ep.Kind)
	}

	rec = getPath(t, h, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz status = %d", rec.Code)
	}
	var ready struct {
		Degradation string `json:"degradation"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Degradation != "bounded" {
		t.Fatalf("/readyz degradation = %q, want bounded", ready.Degradation)
	}
}

// TestHTTPTooLarge: a body past MaxRequestBytes answers 413 with the
// stable too-large kind, not a generic 400.
func TestHTTPTooLarge(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	h := NewHandler(s)
	rec := postJSON(t, h, "/v1/throughput", strings.Repeat(" ", MaxRequestBytes+1))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	var ep ErrorPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Kind != "too-large" {
		t.Fatalf("kind = %q, want too-large", ep.Kind)
	}
}

// TestDecodersOverCapKind: each wire decoder fed one byte past its
// endpoint's cap refuses with the too-large kind, the same 413 the HTTP
// layer answers, so a caller that decodes directly (the fleet router)
// classifies an oversized body exactly as a replica does.
func TestDecodersOverCapKind(t *testing.T) {
	cases := []struct {
		name   string
		limit  int
		decode func([]byte) error
	}{
		{"throughput", MaxRequestBytes, func(b []byte) error { _, err := DecodeRequest(b); return err }},
		{"sadf", MaxSADFRequestBytes, func(b []byte) error { _, err := DecodeSADFRequest(b); return err }},
		{"batch", MaxBatchRequestBytes, func(b []byte) error { _, err := DecodeBatchRequest(b); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.decode(bytes.Repeat([]byte(" "), c.limit+1))
			if got := KindOf(err); got != "too-large" {
				t.Fatalf("KindOf = %q (%v), want too-large", got, err)
			}
		})
	}
}
