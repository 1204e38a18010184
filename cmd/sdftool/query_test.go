package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	sdfreduce "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// startTestServer backs the query tests with a real in-process serving
// stack: the same handler sdfserved mounts.
func startTestServer(t *testing.T, opts serve.Options) *httptest.Server {
	t.Helper()
	s := serve.New(opts)
	ts := httptest.NewServer(serve.NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

func TestQueryRoundTrip(t *testing.T) {
	ts := startTestServer(t, serve.Options{})
	path := writeSample(t, "g.sdf", sampleText)

	out, err := runTool(t, "query", "-server", ts.URL, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine race:", "iteration period: 5/2", "verified:"} {
		if !strings.Contains(out, want) {
			t.Errorf("query output missing %q:\n%s", want, out)
		}
	}

	// The same query again is a cache hit, and the tool says so.
	out, err = runTool(t, "query", "-server", ts.URL, path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "served from the result cache") {
		t.Errorf("repeat query not reported as cached:\n%s", out)
	}

	// Single-engine query.
	out, err = runTool(t, "query", "-server", ts.URL, "-method", "matrix", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "engine: matrix") {
		t.Errorf("matrix query output:\n%s", out)
	}
}

func TestQueryHealth(t *testing.T) {
	ts := startTestServer(t, serve.Options{})
	out, err := runTool(t, "query", "-server", ts.URL, "-health")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"admitting", "engines:", "matrix", "statespace", "hsdf", "closed"} {
		if !strings.Contains(out, want) {
			t.Errorf("health output missing %q:\n%s", want, out)
		}
	}
}

// TestQueryRemoteErrors drives real failures through the wire and
// asserts each maps to its documented exit code.
func TestQueryRemoteErrors(t *testing.T) {
	ts := startTestServer(t, serve.Options{})
	deadlockedText := "sdf dl\nactor A 1\nactor B 1\nchan A B 1 1 0\nchan B A 1 1 0\n"

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"precondition", []string{"query", "-server", ts.URL, writeSample(t, "dl.sdf", deadlockedText)}, 2},
		{"budget", []string{"query", "-server", ts.URL, "-budget", "1", writeSample(t, "g.sdf", sampleText)}, 3},
		{"io", []string{"query", "-server", ts.URL, "no-such-file.sdf"}, 1},
		{"dead server", []string{"query", "-server", "http://127.0.0.1:1", writeSample(t, "g.sdf", sampleText)}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runTool(t, tc.args...)
			if err == nil {
				t.Fatal("expected an error")
			}
			if got := exitCode(err); got != tc.want {
				t.Errorf("exitCode(%v) = %d, want %d", err, got, tc.want)
			}
		})
	}
}

// TestQueryUnavailableExitCode fakes the unavailability responses (a
// saturated queue is timing-dependent, a fake is not) and asserts exit
// code 6 plus the Retry-After contract.
func TestQueryUnavailableExitCode(t *testing.T) {
	for _, kind := range []string{"overloaded", "draining", "breaker-open"} {
		t.Run(kind, func(t *testing.T) {
			status := http.StatusTooManyRequests
			if kind != "overloaded" {
				status = http.StatusServiceUnavailable
			}
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(status)
				fmt.Fprintf(w, `{"error":"busy","kind":%q}`, kind)
			}))
			defer ts.Close()
			_, err := runTool(t, "query", "-server", ts.URL, writeSample(t, "g.sdf", sampleText))
			if err == nil {
				t.Fatal("expected an error")
			}
			if got := exitCode(err); got != 6 {
				t.Errorf("exitCode(%v) = %d, want 6", err, got)
			}
		})
	}
}

// TestQueryAddrFallthrough lists a dead replica before a live one: the
// client must fall through the refused connection and get its answer.
func TestQueryAddrFallthrough(t *testing.T) {
	ts := startTestServer(t, serve.Options{})
	dead := "http://127.0.0.1:1"
	path := writeSample(t, "g.sdf", sampleText)

	out, err := runTool(t, "query", "-addr", dead+","+ts.URL, path)
	if err != nil {
		t.Fatalf("fallthrough query failed: %v", err)
	}
	if !strings.Contains(out, "iteration period: 5/2") {
		t.Errorf("fallthrough output:\n%s", out)
	}

	// An HTTP answer settles the request: a replica that responds with
	// its own verdict must not be retried on the next replica (which
	// here would succeed, masking the verdict).
	verdict := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprint(w, `{"error":"inconsistent","kind":"precondition"}`)
	}))
	defer verdict.Close()
	_, err = runTool(t, "query", "-addr", verdict.URL+","+ts.URL, path)
	if err == nil {
		t.Fatal("replica verdict was retried into a success on the next replica")
	}
	if got := exitCode(err); got != 2 {
		t.Errorf("exitCode(%v) = %d, want the verdict's own 2", err, got)
	}
}

// TestQueryAddrExhaustionExitCode: every replica in the list down means
// unavailability, code 6 — distinct from a typo'd single -server (1).
func TestQueryAddrExhaustionExitCode(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	_, err := runTool(t, "query", "-addr", "http://127.0.0.1:1,http://127.0.0.1:2", path)
	if err == nil {
		t.Fatal("expected an error")
	}
	if got := exitCode(err); got != 6 {
		t.Errorf("exitCode(%v) = %d, want 6", err, got)
	}
	var re *remoteError
	if !errors.As(err, &re) || re.kind != "unavailable" {
		t.Errorf("error = %v, want kind unavailable", err)
	}

	// An empty list is a usage error, not an unavailability.
	if _, err := runTool(t, "query", "-addr", " , ", path); err == nil || exitCode(err) != 1 {
		t.Errorf("empty -addr list: err %v, exit %d, want usage error exit 1", err, exitCode(err))
	}
}

// TestExitCodeTable is the full documented exit-code table, driven both
// by local sentinel errors and by remote error kinds.
func TestExitCodeTable(t *testing.T) {
	remote := func(kind string) error {
		return fmt.Errorf("query: %w", &remoteError{status: 500, kind: kind, msg: "x"})
	}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"plain", errors.New("plain"), 1},
		{"usage", usageError(), 1},
		{"budget", fmt.Errorf("w: %w", sdfreduce.ErrBudgetExceeded), 3},
		{"canceled", fmt.Errorf("w: %w", sdfreduce.ErrCanceled), 3},
		{"engine", fmt.Errorf("w: %w", sdfreduce.ErrEngineFailed), 4},
		{"certificate", fmt.Errorf("w: %w", sdfreduce.ErrCertificateInvalid), 5},
		{"certificate wrapped in engine", fmt.Errorf("w: %w: %w", sdfreduce.ErrEngineFailed, sdfreduce.ErrCertificateInvalid), 5},
		{"budget beats certificate", fmt.Errorf("w: %w: %w", sdfreduce.ErrCertificateInvalid, sdfreduce.ErrBudgetExceeded), 3},
		{"inconsistent", fmt.Errorf("w: %w", sdfreduce.ErrInconsistent), 2},
		{"remote precondition", remote("precondition"), 2},
		{"remote budget", remote("budget"), 3},
		{"remote deadline", remote("deadline"), 3},
		{"remote canceled", remote("canceled"), 3},
		{"remote engine", remote("engine"), 4},
		{"remote internal", remote("internal"), 4},
		{"remote certificate", remote("certificate"), 5},
		{"remote overloaded", remote("overloaded"), 6},
		{"remote draining", remote("draining"), 6},
		{"remote breaker-open", remote("breaker-open"), 6},
		{"remote unavailable", remote("unavailable"), 6},
		{"remote degraded", remote("degraded"), 6},
		{"remote bad-request", remote("bad-request"), 1},
		{"remote injection-disabled", remote("injection-disabled"), 1},
		{"remote too-large", remote("too-large"), 1},
		{"remote unknown kind", remote("???"), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := exitCode(tc.err); got != tc.want {
				t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

// TestQueryMetrics scrapes a server that has seen traffic and asserts
// the summary carries the request counters and histogram quantiles.
func TestQueryMetrics(t *testing.T) {
	reg := obs.New()
	ts := startTestServer(t, serve.Options{Obs: reg})
	path := writeSample(t, "g.sdf", sampleText)

	// Two identical queries: a computed miss, then a cache hit.
	for i := 0; i < 2; i++ {
		if _, err := runTool(t, "query", "-server", ts.URL, path); err != nil {
			t.Fatal(err)
		}
	}
	out, err := runTool(t, "query", "-server", ts.URL, "-metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`sdf_requests_total{outcome="served"} 2`,
		`sdf_cache_events_total{event="hit"} 1`,
		`sdf_cache_events_total{event="miss"} 1`,
		"latency (count, p50, p99):",
		`sdf_request_seconds{method="hedged"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "_bucket") || strings.Contains(out, "_sum") {
		t.Errorf("raw histogram samples leaked into the summary:\n%s", out)
	}

	// A graph argument alongside -metrics is a usage error.
	if _, err := runTool(t, "query", "-server", ts.URL, "-metrics", path); err == nil {
		t.Error("-metrics with a graph argument accepted")
	}

	// A server without a registry: the scrape fails loudly, not silently.
	bare := startTestServer(t, serve.Options{})
	if _, err := runTool(t, "query", "-server", bare.URL, "-metrics"); err == nil {
		t.Error("scrape of a registry-less server did not fail")
	}
}
