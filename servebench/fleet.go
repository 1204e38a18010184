package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/serve"
)

// replicas is the fleet size.
const replicas = 3

// testbed is the serving path under measurement, all in this process:
// three serve.Server replicas built with cmd/sdfserved's defaults
// (registry on, 256-event ring) behind serve.NewHandler on loopback
// listeners, and one fleet.Router with cmd/sdfrouter's defaults (50ms
// hedge delay, jittered backoff, probes started) behind
// fleet.NewHandler.
type testbed struct {
	servers  []*serve.Server
	regs     []*obs.Registry
	addrs    []string // replica base URLs
	router   *fleet.Router
	url      string // router base URL
	clock    *handlerClock
	httpSrvs []*http.Server
	serveWG  sync.WaitGroup
}

// startTestbed brings the fleet up and returns once the router and every
// replica answer /readyz with 200 and the router's health probes have
// admitted every replica.
func startTestbed(ctx context.Context) (*testbed, error) {
	tb := &testbed{clock: newHandlerClock()}
	for i := 0; i < replicas; i++ {
		reg := obs.New()
		reg.EnableEvents(256)
		ln, addr, err := listenLoopback()
		if err != nil {
			tb.close()
			return nil, err
		}
		s := serve.New(serve.Options{Obs: reg})
		tb.serve(ln, tb.clock.wrap(addr, serve.NewHandler(s)))
		tb.servers = append(tb.servers, s)
		tb.regs = append(tb.regs, reg)
		tb.addrs = append(tb.addrs, addr)
	}
	tb.router = fleet.New(fleet.Options{
		Replicas:   tb.addrs,
		HedgeDelay: 50 * time.Millisecond,
		Backoff:    guard.Backoff{Jitter: guard.DefaultJitter()},
		Obs:        obs.New(),
	})
	tb.router.Start()
	ln, url, err := listenLoopback()
	if err != nil {
		tb.close()
		return nil, err
	}
	tb.serve(ln, fleet.NewHandler(tb.router))
	tb.url = url
	for _, u := range append([]string{tb.url}, tb.addrs...) {
		if err := waitReady(ctx, u); err != nil {
			tb.close()
			return nil, err
		}
	}
	// Until its first probe round the router only presumes its replicas
	// alive; the fleet is all-ready once that round has admitted every
	// one of them (one probe interval after Start, 1s by default).
	for !tb.probed() {
		select {
		case <-ctx.Done():
			tb.close()
			return nil, fmt.Errorf("router never probed every replica: %w", context.Cause(ctx))
		case <-time.After(time.Millisecond):
		}
	}
	return tb, nil
}

// probed reports whether the router has seen a successful health probe
// of every replica.
func (tb *testbed) probed() bool {
	ok := map[string]bool{}
	for _, se := range tb.router.Registry().Snapshot() {
		if se.Name == obs.MetricFleetProbes && se.Label("result") == "ok" && se.Value > 0 {
			ok[se.Label("replica")] = true
		}
	}
	return len(ok) == len(tb.addrs)
}

func listenLoopback() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func (tb *testbed) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	tb.httpSrvs = append(tb.httpSrvs, srv)
	tb.serveWG.Add(1)
	go func() {
		defer tb.serveWG.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
}

// waitReady polls base/readyz until it answers 200.
func waitReady(ctx context.Context, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %w", base, context.Cause(ctx))
		case <-time.After(time.Millisecond):
		}
	}
}

// close shuts the listeners, the router and the replicas down and waits
// for every serving goroutine to exit.
func (tb *testbed) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range tb.httpSrvs {
		_ = srv.Shutdown(ctx) // stragglers are cut by Close below
		_ = srv.Close()
	}
	tb.serveWG.Wait()
	if tb.router != nil {
		tb.router.Close()
	}
	for _, s := range tb.servers {
		s.Close()
	}
	http.DefaultClient.CloseIdleConnections()
}

// handlerClock times each replica's handler from outside by wrapping
// it. While on, every POST is timed and filed under the replica's
// address and a key the client can recompute: the body hash for the
// single-graph and sadf endpoints (the router relays those bodies
// verbatim), the first item's key for a batch (the router re-marshals
// sub-batches, but each starts with one of the client's items).
type handlerClock struct {
	on    atomic.Bool
	mu    sync.Mutex
	byKey map[string][]handlerTime
	all   []time.Duration
}

type handlerTime struct {
	replica string
	start   time.Time
	d       time.Duration
}

func newHandlerClock() *handlerClock {
	return &handlerClock{byKey: map[string][]handlerTime{}}
}

func (c *handlerClock) wrap(replica string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !c.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, r)
		d := time.Since(start)
		key := bodyKey(body)
		if r.URL.Path == pathBatch {
			key = firstItemKey(body)
		}
		c.mu.Lock()
		c.byKey[key] = append(c.byKey[key], handlerTime{replica: replica, start: start, d: d})
		c.all = append(c.all, d)
		c.mu.Unlock()
	})
}

// lookup returns the handler times filed under key.
func (c *handlerClock) lookup(key string) []handlerTime {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byKey[key]
}

func (c *handlerClock) durations() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.all...)
}

func bodyKey(b []byte) string {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return fmt.Sprintf("%x", h.Sum64())
}

// itemKey keys one batch item by its graph, in a form that survives the
// router's re-marshalling (a JSON graph is compacted on the way).
func itemKey(p serve.RequestPayload) string {
	if p.GraphText != "" {
		return "t" + bodyKey([]byte(p.GraphText))
	}
	var b bytes.Buffer
	if err := json.Compact(&b, p.Graph); err != nil {
		return "j" + bodyKey(p.Graph)
	}
	return "j" + bodyKey(b.Bytes())
}

func firstItemKey(body []byte) string {
	var p serve.BatchRequestPayload
	if err := json.Unmarshal(body, &p); err != nil || len(p.Items) == 0 {
		return ""
	}
	return itemKey(p.Items[0])
}
