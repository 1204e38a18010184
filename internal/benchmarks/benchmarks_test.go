package benchmarks

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mcm"
	"repro/internal/rat"
	"repro/internal/schedule"
	"repro/internal/sdf"
	"repro/internal/transform"
)

func TestCheck(t *testing.T) {
	if err := Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAllGraphsConsistentAndLive(t *testing.T) {
	for _, c := range All() {
		g := c.Graph()
		if _, err := g.RepetitionVector(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		if !schedule.IsLive(g) {
			t.Errorf("%s: graph deadlocks", c.Name)
		}
	}
}

// The traditional conversion size is the iteration length; for the graphs
// whose published rates are exact the Table 1 numbers must match exactly.
func TestTraditionalCountsExactWhereKnown(t *testing.T) {
	exact := map[string]bool{
		"h.263 decoder":         true,
		"h.263 encoder":         true,
		"mp3 dec. block par.":   true,
		"mp3 dec. granule par.": true,
		"mp3 playback":          true,
		"sample rate conv.":     true,
	}
	for _, c := range All() {
		g := c.Graph()
		sum, err := g.IterationLength()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if exact[c.Name] && sum != int64(c.PaperTraditional) {
			t.Errorf("%s: iteration length %d, paper reports %d", c.Name, sum, c.PaperTraditional)
		}
		t.Logf("%-22s traditional: measured %5d, paper %5d", c.Name, sum, c.PaperTraditional)
	}
}

// Both conversions run on every benchmark; the novel one must respect the
// N(N+2) bound, and both must be valid HSDF graphs of consistent size.
func TestConversionsOnAllBenchmarks(t *testing.T) {
	for _, c := range All() {
		g := c.Graph()
		ht, st, err := transform.Traditional(g)
		if err != nil {
			t.Fatalf("%s traditional: %v", c.Name, err)
		}
		if !ht.IsHSDF() {
			t.Errorf("%s: traditional result not homogeneous", c.Name)
		}
		hn, r, sn, err := core.ConvertSymbolic(g)
		if err != nil {
			t.Fatalf("%s symbolic: %v", c.Name, err)
		}
		if !hn.IsHSDF() {
			t.Errorf("%s: novel result not homogeneous", c.Name)
		}
		n := r.NumTokens()
		if sn.Actors() > n*(n+2) {
			t.Errorf("%s: novel size %d exceeds N(N+2) = %d", c.Name, sn.Actors(), n*(n+2))
		}
		ratio := float64(st.Actors) / float64(sn.Actors())
		t.Logf("%-22s trad %5d  new %4d (N=%3d)  ratio %6.2f   paper: %5d / %4d = %.2f",
			c.Name, st.Actors, sn.Actors(), n, ratio,
			c.PaperTraditional, c.PaperNew, float64(c.PaperTraditional)/float64(c.PaperNew))
	}
}

// The qualitative Table 1 shape: the novel conversion is much smaller for
// every case except the modem, where it is larger.
func TestTable1Shape(t *testing.T) {
	for _, c := range All() {
		g := c.Graph()
		_, st, err := transform.Traditional(g)
		if err != nil {
			t.Fatal(err)
		}
		_, _, sn, err := core.ConvertSymbolic(g)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(st.Actors) / float64(sn.Actors())
		if c.Name == "modem" {
			if ratio >= 1 {
				t.Errorf("modem: expected novel conversion larger than traditional, got ratio %.2f", ratio)
			}
			continue
		}
		if ratio <= 1 {
			t.Errorf("%s: expected novel conversion smaller, got trad %d vs new %d",
				c.Name, st.Actors, sn.Actors())
		}
	}
}

// Throughput equivalence (§6: "a graph which has the same throughput...
// as the original graph"): the MCM of both conversions agrees with the
// matrix eigenvalue for every benchmark.
func TestConversionsPreserveThroughput(t *testing.T) {
	for _, c := range All() {
		g := c.Graph()
		r, err := core.SymbolicIteration(g)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		lam, ok, err := r.Matrix.Eigenvalue()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if !ok {
			t.Fatalf("%s: no cycle (self-loops should serialise)", c.Name)
		}
		hn, _, _, err := core.ConvertSymbolic(g)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := mcmOf(hn)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if !rn.Equal(lam) {
			t.Errorf("%s: novel conversion period %v != matrix eigenvalue %v", c.Name, rn, lam)
		}
		ht, _, err := transform.Traditional(g)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := mcmOf(ht)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if !rt.Equal(lam) {
			t.Errorf("%s: traditional conversion period %v != matrix eigenvalue %v", c.Name, rt, lam)
		}
	}
}

func mcmOf(g *sdf.Graph) (rat.Rat, error) {
	res, err := mcm.MaxCycleRatio(context.Background(), g)
	if err != nil {
		return rat.Rat{}, err
	}
	if !res.HasCycle {
		return rat.Rat{}, fmt.Errorf("no cycle in %s", g.Name())
	}
	return res.CycleMean, nil
}
