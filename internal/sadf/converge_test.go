package sadf_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sadf"
	"repro/internal/sdfio"
)

// howardCapModels are generated FSM-SADF models on whose max-plus
// automaton Howard's policy iteration once cycled until its iteration
// cap, because value determination re-zeroed the bias of cycles the
// improvement step had left alone.
var howardCapModels = []string{"howard-cap-ring4-s3-q21.txt", "howard-cap-ring5-s5-q28.txt"}

// loadModel parses one of the models in testdata.
func loadModel(t *testing.T, name string) *sadf.Model {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sdfio.ParseSADFText(string(data))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return m
}

// TestAnalyzeHowardCapModelsConverge: on the models where Howard's
// iteration used to hit its cap, Analyze answers with a positive period
// whose certificate re-checks, and names critical states from Howard's
// own critical cycle: a closed walk of the FSM.
func TestAnalyzeHowardCapModelsConverge(t *testing.T) {
	for _, name := range howardCapModels {
		t.Run(name, func(t *testing.T) {
			m := loadModel(t, name)
			res, cert, err := sadf.Analyze(context.Background(), m)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if res.Unbounded || res.Period.Sign() <= 0 {
				t.Fatalf("period = %v (unbounded=%v), want a positive period", res.Period, res.Unbounded)
			}
			if !cert.Period.Equal(res.Period) {
				t.Errorf("certificate claims %v, result %v", cert.Period, res.Period)
			}
			if err := cert.Check(context.Background(), m.Graphs()); err != nil {
				t.Fatalf("certificate does not re-check: %v", err)
			}
			if len(res.CriticalStates) == 0 {
				t.Fatal("no critical states")
			}
			trans := map[[2]string]bool{}
			for _, tr := range m.Transitions {
				trans[[2]string{tr.From, tr.To}] = true
			}
			for i, q := range res.CriticalStates {
				next := res.CriticalStates[(i+1)%len(res.CriticalStates)]
				if !trans[[2]string{q, next}] {
					t.Fatalf("critical states %v: no FSM transition %s -> %s", res.CriticalStates, q, next)
				}
			}
		})
	}
}
