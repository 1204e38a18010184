package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/sdfio"
	"repro/internal/serve"
	"repro/internal/testutil"
)

// startDaemon runs the daemon in-process on an ephemeral port and
// returns its base URL, a cancel that plays the role of SIGTERM, and a
// channel carrying run's exit error.
func startDaemon(t *testing.T, logw io.Writer, args ...string) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), logw, ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("daemon died on startup: %v", err)
		return "", nil, nil
	}
}

func postGraph(t *testing.T, base, method string) (*http.Response, []byte) {
	t.Helper()
	var text bytes.Buffer
	if err := sdfio.WriteText(&text, gen.Figure2()); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.RequestPayload{GraphText: text.String(), Method: method})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/throughput", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestDaemonLifecycle boots the daemon, serves real HTTP traffic,
// drains it via the SIGTERM path, and asserts a clean exit with no
// leaked goroutines.
func TestDaemonLifecycle(t *testing.T) {
	defer testutil.FailOnLeakedGoroutines(t, "repro/internal/serve")
	defer testutil.FailOnLeakedGoroutines(t, "repro/internal/analysis")
	var log bytes.Buffer
	base, sigterm, done := startDaemon(t, &log)

	resp, body := postGraph(t, base, "hedged")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("throughput: %d %s", resp.StatusCode, body)
	}
	var res serve.ResultPayload
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Period == "" {
		t.Errorf("result = %+v", res)
	}

	// Second identical request: answered from the cache.
	_, body = postGraph(t, base, "hedged")
	var again serve.ResultPayload
	if err := json.Unmarshal(body, &again); err != nil || !again.Cached {
		t.Errorf("repeat not cached (decode err %v): %s", err, body)
	}

	for _, probe := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(base + probe)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s = %d", probe, r.StatusCode)
		}
	}

	// Injection is off by default: the wire must refuse it.
	var text bytes.Buffer
	if err := sdfio.WriteText(&text, gen.Figure2()); err != nil {
		t.Fatal(err)
	}
	injBody, err := json.Marshal(serve.RequestPayload{
		GraphText: text.String(),
		Inject:    []serve.InjectPayload{{Engine: "matrix", Mode: "panic"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(base+"/v1/throughput", "application/json", bytes.NewReader(injBody))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusForbidden {
		t.Errorf("injection without -allow-injection = %d, want 403", r.StatusCode)
	}

	sigterm()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v\nlog:\n%s", err, log.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain")
	}
	if !strings.Contains(log.String(), "drained cleanly") {
		t.Errorf("log missing clean-drain line:\n%s", log.String())
	}
}

func TestDaemonReadyzFlipsOnDrain(t *testing.T) {
	defer testutil.FailOnLeakedGoroutines(t, "repro/internal/serve")
	var log bytes.Buffer
	base, sigterm, done := startDaemon(t, &log)
	sigterm()
	if err := <-done; err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
	// After run returns, the listener is closed: requests must fail at
	// the connection level, not hang.
	if _, err := http.Get(base + "/readyz"); err == nil {
		t.Error("listener still accepting after drain")
	}
}

func TestDaemonBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, io.Discard, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"positional"}, io.Discard, nil); err == nil {
		t.Fatal("positional argument accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.256.256.256:99999"}, io.Discard, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}
