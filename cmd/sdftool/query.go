package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	sdfreduce "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// remoteError is an analysis failure relayed by an sdfserved daemon.
// It preserves the server's stable error classification (the "kind"
// field of the wire error payload) so exitCode can map a remote failure
// onto the same exit-code table as a local one.
type remoteError struct {
	status int    // HTTP status
	kind   string // serve.KindOf classification
	msg    string // server-side error text
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("server: %s (kind %s, http %d)", e.msg, e.kind, e.status)
}

// exitCode maps the server's error kind onto sdftool's exit codes.
// Unavailability kinds get their own code, 6: the request was fine, the
// service was not, and the caller should retry rather than touch the
// model. "unavailable" covers both the router's fleet-wide refusals and
// an exhausted client-side -addr fallthrough; "degraded" is the
// brownout ladder refusing an -exact-only request (retry when the
// pressure clears). "too-large" is a permanent verdict on this request
// — shrink the graph, retrying cannot help — so it shares code 1 with
// the other request-shaped failures, as does "sadf-model", a
// structurally broken model; "sadf-scenario", a scenario failing the
// analysis preconditions, is a model precondition (2).
func (e *remoteError) exitCode() int {
	switch e.kind {
	case "precondition", "sadf-scenario":
		return 2
	case "budget", "deadline", "canceled":
		return 3
	case "engine", "disagreement", "internal":
		return 4
	case "certificate":
		return 5
	case "overloaded", "draining", "breaker-open", "unavailable", "degraded":
		return 6
	case "bad-request", "injection-disabled", "too-large", "sadf-model":
		return 1
	default: // unknown kinds
		return 1
	}
}

// transportError marks a failure to reach a replica at all — connect
// refused, reset, client-side timeout. Unlike an HTTP error response
// (which any replica would reproduce or which is the replica's own
// verdict), a transport failure says nothing about the request, so the
// -addr fallthrough moves on to the next replica.
type transportError struct {
	addr string
	err  error
}

func (e *transportError) Error() string { return fmt.Sprintf("%s: %v", e.addr, e.err) }
func (e *transportError) Unwrap() error { return e.err }

// cmdQuery analyses a graph through a running sdfserved daemon instead
// of in-process, or (with -health) fetches the daemon's health report.
func cmdQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "base URL of the sdfserved daemon")
	addrs := fs.String("addr", "", "comma-separated replica base URLs tried in order (overrides -server); exhausting the list exits 6")
	method := fs.String("method", "hedged", "engine: hedged, matrix, statespace or hsdf")
	format := fs.String("format", "", "input format: text, xml or json (default: by extension)")
	timeout := fs.Duration("timeout", 0, "per-request analysis deadline sent to the server (0 = server default)")
	budget := fs.Int64("budget", 0, "uniform work cap sent to the server (0 = defaults, negative = unlimited)")
	exactOnly := fs.Bool("exact-only", false, "refuse degraded answers: a browned-out server answers 429 (exit 6) instead of a bounded or stale result")
	health := fs.Bool("health", false, "fetch the server health report instead of analysing a graph")
	metrics := fs.Bool("metrics", false, "scrape and summarise the server's /metrics instead of analysing a graph")
	if err := fs.Parse(args); err != nil {
		return err
	}
	servers := []string{strings.TrimRight(*server, "/")}
	if *addrs != "" {
		servers = servers[:0]
		for _, u := range strings.Split(*addrs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				servers = append(servers, strings.TrimRight(u, "/"))
			}
		}
		if len(servers) == 0 {
			return fmt.Errorf("-addr lists no replica URLs")
		}
	}
	if *health {
		if fs.NArg() != 0 {
			return fmt.Errorf("-health takes no graph argument")
		}
		return queryHealth(out, servers[0])
	}
	if *metrics {
		if fs.NArg() != 0 {
			return fmt.Errorf("-metrics takes no graph argument")
		}
		return queryMetrics(out, servers[0])
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one graph file argument")
	}
	g, err := loadGraph(fs.Arg(0), *format)
	if err != nil {
		return err
	}

	var graphJSON bytes.Buffer
	if err := sdfreduce.WriteJSON(&graphJSON, g); err != nil {
		return err
	}
	body, err := json.Marshal(serve.RequestPayload{
		Graph:     json.RawMessage(graphJSON.Bytes()),
		Method:    *method,
		TimeoutMS: timeout.Milliseconds(),
		Budget:    *budget,
		ExactOnly: *exactOnly,
	})
	if err != nil {
		return err
	}

	// A single -server target keeps its plain transport error (exit 1:
	// likely a typo or a stopped daemon); only the -addr replica list
	// has fallthrough-then-unavailable semantics.
	var res serve.ResultPayload
	if *addrs != "" {
		err = postThroughputAny(servers, body, *timeout, &res)
	} else {
		_, err = post(servers[0], "/v1/throughput", body, *timeout, &res)
	}
	if err != nil {
		return err
	}
	if len(res.Report) > 0 {
		fmt.Fprintln(out, "engine race:")
		for _, line := range res.Report {
			fmt.Fprintf(out, "  %s\n", line)
		}
	}
	switch {
	case res.Unbounded:
		fmt.Fprintln(out, "throughput: unbounded (no dependency cycle constrains the steady state)")
	case res.Degradation == "bounded":
		// A brownout answer: the period is a certified conservative
		// upper bound, not the exact Λ.
		fmt.Fprintf(out, "iteration period: <= %s (certified upper bound; engine: %s)\n", res.Period, res.Engine)
		if res.PeriodLower != "" {
			fmt.Fprintf(out, "period enclosure: [%s, %s]\n", res.PeriodLower, res.Period)
		}
	default:
		fmt.Fprintf(out, "iteration period: %s (engine: %s)\n", res.Period, res.Engine)
	}
	if res.Verified {
		fmt.Fprintf(out, "verified: %s\n", res.Certificate)
	}
	if res.Degradation != "" {
		note := ""
		if res.Stale {
			note = "; expired cache entry, background refresh under way"
		}
		fmt.Fprintf(out, "degraded: served at the %s level%s\n", res.Degradation, note)
	}
	switch {
	case res.Cached:
		fmt.Fprintln(out, "served from the result cache")
	case res.Deduped:
		fmt.Fprintln(out, "deduplicated against an identical in-flight request")
	}
	return nil
}

// postThroughputAny walks the replica list, falling through replicas
// that cannot be reached at the transport level. The first replica that
// answers — success or its own error verdict — settles the request;
// HTTP-level failures are never retried on another replica, because a
// replica that answered is alive and deterministic failures would
// repeat anywhere. An exhausted list is an unavailability: every
// configured replica was down, which maps to exit code 6.
func postThroughputAny(servers []string, body []byte, timeout time.Duration, res *serve.ResultPayload) error {
	var last *transportError
	for _, s := range servers {
		_, err := post(s, "/v1/throughput", body, timeout, res)
		if errors.As(err, &last) {
			continue
		}
		return err
	}
	return &remoteError{
		kind: "unavailable",
		msg:  fmt.Sprintf("no replica reachable (%d tried; last: %v)", len(servers), last),
	}
}

// post performs one wire round trip — query, sadf and batch alike — and
// decodes a 200 answer into res, returning the raw answer too. Error
// payloads become remoteError, failures to reach the server at all
// transportError.
func post(server, path string, body []byte, timeout time.Duration, res any) ([]byte, error) {
	// The client deadline covers the server's analysis deadline plus
	// generous transport slack; it exists so a dead server cannot hang
	// the tool forever.
	client := &http.Client{Timeout: timeout + 60*time.Second}
	resp, err := client.Post(server+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, &transportError{addr: server, err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, serve.MaxResponseBytes+1))
	if err != nil {
		return nil, &transportError{addr: server, err: err}
	}
	if len(data) > serve.MaxResponseBytes {
		return nil, fmt.Errorf("server: answer exceeds the %d-byte response cap", serve.MaxResponseBytes)
	}
	if resp.StatusCode != http.StatusOK {
		var ep serve.ErrorPayload
		if err := json.Unmarshal(data, &ep); err != nil || ep.Kind == "" {
			return nil, fmt.Errorf("server: http %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		return nil, &remoteError{status: resp.StatusCode, kind: ep.Kind, msg: ep.Error}
	}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("server: malformed result: %w", err)
	}
	return data, nil
}

// queryMetrics scrapes the daemon's Prometheus exposition and prints a
// human summary: every counter and gauge verbatim, then each latency
// histogram reduced to count / p50 / p99 (quantiles estimated from the
// cumulative buckets, the same way a Prometheus histogram_quantile
// would).
func queryMetrics(out io.Writer, server string) error {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(server + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("server: http %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	samples, err := obs.ParseText(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return fmt.Errorf("server: malformed exposition: %w", err)
	}

	// Histogram series arrive flattened (_bucket/_sum/_count); regroup
	// them by base name + labels-without-le so each can be summarised.
	type hist struct {
		le    map[float64]float64
		count float64
	}
	hists := make(map[string]*hist)
	histKey := func(base string, labels map[string]string) string {
		kv := make([]string, 0, len(labels))
		for k, v := range labels {
			if k != "le" {
				kv = append(kv, fmt.Sprintf("%s=%q", k, v))
			}
		}
		sort.Strings(kv)
		return base + "{" + strings.Join(kv, ",") + "}"
	}
	var scalars []string
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			key := histKey(strings.TrimSuffix(s.Name, "_bucket"), s.Labels)
			h := hists[key]
			if h == nil {
				h = &hist{le: make(map[float64]float64)}
				hists[key] = h
			}
			var bound float64
			if _, err := fmt.Sscanf(s.Label("le"), "%g", &bound); err == nil {
				h.le[bound] = s.Value
			}
		case strings.HasSuffix(s.Name, "_count"):
			key := histKey(strings.TrimSuffix(s.Name, "_count"), s.Labels)
			h := hists[key]
			if h == nil {
				h = &hist{le: make(map[float64]float64)}
				hists[key] = h
			}
			h.count = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			// Folded into the histogram summary; not printed alone.
		default:
			scalars = append(scalars, fmt.Sprintf("%s %g", histKey(s.Name, s.Labels), s.Value))
		}
	}

	fmt.Fprintf(out, "metrics:    %s (%d samples)\n", server, len(samples))
	sort.Strings(scalars)
	for _, line := range scalars {
		fmt.Fprintf(out, "  %s\n", line)
	}
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		fmt.Fprintln(out, "latency (count, p50, p99):")
	}
	for _, k := range keys {
		h := hists[k]
		fmt.Fprintf(out, "  %s %g %v %v\n", k, h.count,
			obs.BucketQuantile(h.le, 0.50).Round(time.Microsecond),
			obs.BucketQuantile(h.le, 0.99).Round(time.Microsecond))
	}
	return nil
}

// queryHealth prints the daemon's health report: breaker states first
// (they are what an operator acts on), then the raw counters.
func queryHealth(out io.Writer, server string) error {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(server + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: http %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var h serve.Health
	if err := json.Unmarshal(data, &h); err != nil {
		return fmt.Errorf("server: malformed health report: %w", err)
	}
	state := "admitting"
	if h.Draining {
		state = "draining"
	}
	if h.Degradation != "" && h.Degradation != "exact" {
		state += ", degraded: " + h.Degradation
	}
	fmt.Fprintf(out, "server:     %s (%s)\n", server, state)
	fmt.Fprintf(out, "in flight:  %d (running %d of %d workers, queue capacity %d)\n",
		h.InFlight, h.Running, h.Workers, h.QueueCapacity)
	fmt.Fprintf(out, "pool:       %d/%d units in use (headroom %d)\n", h.PoolInUse, h.PoolCapacity, h.PoolHeadroom)
	fmt.Fprintf(out, "cache:      %d/%d entries, %d hits, %d misses, %d deduped\n",
		h.CacheEntries, h.CacheCapacity, h.CacheHits, h.CacheMisses, h.Deduped)
	fmt.Fprintf(out, "requests:   %d admitted, %d served, %d failed, %d refused overloaded\n",
		h.Admitted, h.Served, h.Failed, h.Overloaded)
	fmt.Fprintln(out, "engines:")
	for _, e := range h.Engines {
		fmt.Fprintf(out, "  %-11s %-9s (streak %d, trips %d)\n", e.Engine, e.State, e.Streak, e.Trips)
	}
	return nil
}
