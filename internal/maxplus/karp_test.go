package maxplus_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/maxplus"
	"repro/internal/rat"
)

// karpEigenvalue is the test-only Karp reference for the max-plus
// eigenvalue: the maximum cycle mean of the precedence graph (edge j→i
// of weight m[i][j] for every finite entry). Walks start at a virtual
// source joined to every node by a zero-weight edge, so the graph need
// not be strongly connected: with D_k(v) the heaviest k-edge walk ending
// at v (D_0 = 0 everywhere) the mean is max_v min_k (D_n(v) − D_k(v))/(n − k)
// over finite terms, and there is no cycle when every D_n(v) is −∞.
func karpEigenvalue(m *maxplus.Matrix) (rat.Rat, bool, error) {
	n := m.Size()
	d := make([][]maxplus.T, n+1)
	d[0] = make([]maxplus.T, n)
	for k := 1; k <= n; k++ {
		d[k] = maxplus.NewVec(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d[k][i] = d[k][i].Max(d[k-1][j].Add(m.At(i, j)))
			}
		}
	}
	best, found := rat.Rat{}, false
	for v := 0; v < n; v++ {
		if d[n][v].IsNegInf() {
			continue
		}
		var worst rat.Rat
		for k := 0; k < n; k++ {
			if d[k][v].IsNegInf() {
				continue
			}
			mean, err := rat.New(d[n][v].Int()-d[k][v].Int(), int64(n-k))
			if err != nil {
				return rat.Rat{}, false, err
			}
			if k == 0 || mean.Cmp(worst) < 0 {
				worst = mean
			}
		}
		if !found || worst.Cmp(best) > 0 {
			best, found = worst, true
		}
	}
	return best, found, nil
}

// randomMatrix draws an n×n matrix whose finite entries appear with
// probability pct/100 and weights in [lo, hi]. acyclic keeps only entries
// below the diagonal (edges j→i with j < i), so no cycle exists.
func randomMatrix(rng *rand.Rand, n, pct int, lo, hi int64, acyclic bool) *maxplus.Matrix {
	m := maxplus.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (acyclic && j >= i) || rng.Intn(100) >= pct {
				continue
			}
			m.Set(i, j, maxplus.FromInt(lo+rng.Int63n(hi-lo+1)))
		}
	}
	return m
}

func checkAgainstKarp(t *testing.T, name string, m *maxplus.Matrix) {
	t.Helper()
	want, wantCycle, err := karpEigenvalue(m)
	if err != nil {
		t.Fatalf("%s: karp: %v", name, err)
	}
	got, gotCycle, err := m.EigenvalueCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: EigenvalueCtx: %v", name, err)
	}
	if gotCycle != wantCycle || (wantCycle && !got.Equal(want)) {
		t.Errorf("%s (%d×%d): eigenvalue %v (cycle %v), karp %v (cycle %v)",
			name, m.Size(), m.Size(), got, gotCycle, want, wantCycle)
	}
}

// TestEigenvalueMatchesKarp: on random matrices up to 24×24 — sparse and
// so mostly reducible, with negative weights, with self-loops and
// acyclic — the eigenvalue equals Karp's maximum cycle mean exactly.
func TestEigenvalueMatchesKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(24)
		var m *maxplus.Matrix
		kind := []string{"sparse", "negative", "self-loops", "acyclic"}[trial%4]
		switch kind {
		case "sparse":
			m = randomMatrix(rng, n, 200/n, 0, 60, false)
		case "negative":
			m = randomMatrix(rng, n, rng.Intn(101), -60, 20, false)
		case "self-loops":
			m = randomMatrix(rng, n, 150/n, -10, 40, false)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					m.Set(i, i, maxplus.FromInt(rng.Int63n(50)))
				}
			}
		case "acyclic":
			m = randomMatrix(rng, n, rng.Intn(101), -30, 30, true)
		}
		checkAgainstKarp(t, kind, m)
	}
}

// TestEigenvalueMatchesKarpOnIterationMatrices compares on the iteration
// matrices of seeded random consistent, live SDF graphs.
func TestEigenvalueMatchesKarpOnIterationMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		g, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 2 + rng.Intn(6), MaxRep: 4, MaxExec: 20, Chords: rng.Intn(4), SelfLoop: trial%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.SymbolicIterationCtx(context.Background(), g)
		if err != nil {
			t.Fatalf("trial %d: symbolic: %v", trial, err)
		}
		if r.Matrix.Size() > 24 {
			continue
		}
		checkAgainstKarp(t, g.Name(), r.Matrix)
	}
}

// denseMatrix is a full n×n matrix: irreducible, with n² finite entries.
func denseMatrix(n int) *maxplus.Matrix {
	m := maxplus.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, maxplus.FromInt(int64((i*7+j*3)%11)))
		}
	}
	return m
}

// The eigenvalue charges n·E states, Karp's own count on an irreducible
// matrix: one state below refuses with a budget error that names the
// matrix engine and its eigenvalue phase, and exactly n·E passes.
func TestEigenvalueChargesStates(t *testing.T) {
	const n = 6
	m := denseMatrix(n)
	charge := int64(n * n * n) // n nodes × n² finite entries
	b := guard.Unlimited()
	b.MaxStates = charge - 1
	_, _, err := m.EigenvalueCtx(guard.WithBudget(context.Background(), b))
	var ee *guard.EngineError
	if !errors.Is(err, guard.ErrBudgetExceeded) || !errors.As(err, &ee) {
		t.Fatalf("MaxStates %d: err = %v, want a budget refusal", b.MaxStates, err)
	}
	if ee.Engine != "matrix" || ee.Phase != "eigenvalue" {
		t.Errorf("refusal from %s/%s, want matrix/eigenvalue", ee.Engine, ee.Phase)
	}
	b.MaxStates = charge
	if _, ok, err := m.EigenvalueCtx(guard.WithBudget(context.Background(), b)); err != nil || !ok {
		t.Errorf("MaxStates %d: ok=%v err=%v, want an answer", b.MaxStates, ok, err)
	}
}

// A cancelled context stops the eigenvalue before it runs, on matrices
// whose charge stays below one checkpoint interval as well as above it.
func TestEigenvalueHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{2, 24} {
		_, _, err := denseMatrix(n).EigenvalueCtx(ctx)
		if !errors.Is(err, guard.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%d×%d: err = %v, want a cancellation", n, n, err)
		}
	}
}
