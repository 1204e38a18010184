package main

import (
	"strings"
	"testing"
)

func TestThroughputVerify(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	for _, m := range []string{"matrix", "statespace", "hsdf"} {
		out, err := runTool(t, "throughput", "-method", m, "-verify", path)
		if err != nil {
			t.Fatalf("%s -verify: %v", m, err)
		}
		if !strings.Contains(out, "iteration period: 5/2") {
			t.Errorf("%s -verify output misses the period:\n%s", m, out)
		}
		if !strings.Contains(out, "verified: throughput certificate") {
			t.Errorf("%s -verify output misses the certificate line:\n%s", m, out)
		}
	}
}

func TestThroughputHedged(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	out, err := runTool(t, "throughput", "-method", "hedged", path)
	if err != nil {
		t.Fatalf("hedged: %v\n%s", err, out)
	}
	for _, want := range []string{
		"engine race:", "answered", "iteration period: 5/2", "verified: throughput certificate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hedged output misses %q:\n%s", want, out)
		}
	}

	// On the explosive graph the matrix engine answers, verified, and
	// the engines after it are skipped.
	boom := writeSample(t, "boom.sdf", explosiveText)
	out, err = runTool(t, "throughput", "-method", "hedged", boom)
	if err != nil {
		t.Fatalf("hedged on the explosive graph: %v\n%s", err, out)
	}
	for _, want := range []string{
		"matrix      answered", "hsdf        skipped", "iteration period: 4000000 (engine: matrix)", "verified: throughput certificate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hedged output misses %q:\n%s", want, out)
		}
	}
}

func TestThroughputResilientRejectsVerify(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	_, err := runTool(t, "throughput", "-method", "resilient", "-verify", path)
	if err == nil || !strings.Contains(err.Error(), `unknown method "resilient"`) {
		t.Errorf("-method resilient -verify: err = %v, want the unknown-method error", err)
	}
}
