package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/verify"
)

// TestReductionMemoHit: a repeated reducible request skips the
// fixpoint (one reduce-miss, then reduce-hits), and the memo hit serves
// the same verified lifted answer as the first request.
func TestReductionMemoHit(t *testing.T) {
	defer noLeaks(t)
	reg := obs.New()
	s := New(Options{Obs: reg})
	defer s.Close()
	req := &Request{Graph: benchmarks.FusibleRing(12), Method: "hedged"}
	first, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Reduction) == 0 || !first.Verified {
		t.Fatalf("first answer: reduction %v verified %v, want a verified reduced answer", first.Reduction, first.Verified)
	}
	for i := 0; i < 2; i++ {
		again, err := s.Analyze(context.Background(), &Request{Graph: benchmarks.FusibleRing(12), Method: "hedged"})
		if err != nil {
			t.Fatal(err)
		}
		if !again.Verified || again.Period != first.Period || len(again.Reduction) != len(first.Reduction) {
			t.Errorf("memo hit %d: period %s verified %v reduction %v, want %s verified %v",
				i, again.Period, again.Verified, again.Reduction, first.Period, first.Reduction)
		}
	}
	if got := reg.Counter(obs.MetricCacheEvents, "event", "reduce-miss").Value(); got != 1 {
		t.Errorf("reduce-miss = %d, want 1", got)
	}
	if got := reg.Counter(obs.MetricCacheEvents, "event", "reduce-hit").Value(); got != 2 {
		t.Errorf("reduce-hit = %d, want 2", got)
	}
}

// TestReductionMemoConcurrent shares memo entries — and so reduction
// chains — between concurrent requests: every answer is verified and
// equal to the single-request answer of its graph.
func TestReductionMemoConcurrent(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{CacheEntries: 2, Workers: 4})
	defer s.Close()
	ref := New(Options{})
	defer ref.Close()
	want := make(map[int]string)
	for n := 5; n < 8; n++ {
		res, err := ref.Analyze(context.Background(), &Request{Graph: benchmarks.FusibleRing(n), Method: "matrix"})
		if err != nil {
			t.Fatal(err)
		}
		want[n] = res.Period
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				n := 5 + (g+i)%3
				res, err := s.Analyze(context.Background(), &Request{Graph: benchmarks.FusibleRing(n), Method: "matrix"})
				switch {
				case errors.Is(err, ErrOverloaded):
				case err != nil:
					t.Errorf("ring %d: %v", n, err)
				case !res.Verified || res.Period != want[n]:
					t.Errorf("ring %d: period %s verified %v, want verified %s", n, res.Period, res.Verified, want[n])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReductionMemoBounded: the memo holds at most CacheEntries
// entries.
func TestReductionMemoBounded(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{CacheEntries: 2})
	defer s.Close()
	for n := 3; n < 8; n++ {
		if _, err := s.Analyze(context.Background(), &Request{Graph: benchmarks.FusibleRing(n), Method: "matrix"}); err != nil {
			t.Fatal(err)
		}
	}
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	if got := s.memo.order.Len(); got != 2 {
		t.Errorf("memo holds %d entries, want the cache bound 2", got)
	}
}

// TestReductionMemoCannotForgeVerified plants a wrong memo entry — the
// reduction chain of a different graph — under a request's key. The
// answer is still lifted through the entry's chain and re-checked
// against the request's own graph, so the request fails with a
// certificate error instead of claiming a verified wrong period.
func TestReductionMemoCannotForgeVerified(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	other, err := passes.Reduce(context.Background(), benchmarks.FusibleRing(9), passes.Options{})
	if err != nil || len(other.Steps) == 0 {
		t.Fatalf("reduce: %v (%d steps)", err, len(other.Steps))
	}
	req := &Request{Graph: benchmarks.FusibleRing(8), Method: "hedged"}
	forged := Request{Graph: other.Final, Method: req.Method}
	s.memo.put(req.Key(), memoEntry{red: other, cost: 1, key: forged.Key()})

	res, err := s.Analyze(context.Background(), req)
	if err == nil {
		t.Fatalf("forged memo entry served period %s (verified %v)", res.Period, res.Verified)
	}
	if !errors.Is(err, verify.ErrInvalid) {
		t.Errorf("err = %v, want a rejected lifted certificate", err)
	}
}
