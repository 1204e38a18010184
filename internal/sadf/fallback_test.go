package sadf_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/sadf"
	"repro/internal/sdfio"
)

// howardCapModels are generated FSM-SADF models on whose max-plus
// automaton Howard's policy iteration hits its iteration cap.
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

// TestAnalyzeHowardCapFallsBackToKarp: on the models where Howard does
// not converge, Analyze answers through the Karp fallback with a period
// whose certificate re-checks, names critical states from the witness
// cycle, and leaves a fallback event.
func TestAnalyzeHowardCapFallsBackToKarp(t *testing.T) {
	for _, name := range howardCapModels {
		t.Run(name, func(t *testing.T) {
			m := loadModel(t, name)
			reg := obs.New()
			reg.EnableEvents(16)
			ctx := obs.WithRegistry(context.Background(), reg)
			res, cert, err := sadf.Analyze(ctx, m)
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
			if len(res.CriticalStates) == 0 || len(res.CriticalStates) != len(cert.Cycle) {
				t.Errorf("critical states %v, want one per witness-cycle edge (%d)", res.CriticalStates, len(cert.Cycle))
			}
			found := false
			events, _ := reg.Events()
			for _, ev := range events {
				found = found || ev.Name == "sadf.karp-fallback"
			}
			if !found {
				t.Error("no sadf.karp-fallback event")
			}
		})
	}
}
