package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/gen"
	"repro/internal/rat"
	"repro/internal/sadf"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/serve"
)

// servedStack is one replica (an in-process serve.Server behind its
// real HTTP handler) with a router in front of it, both on real ports.
type servedStack struct {
	s       *serve.Server
	replica *httptest.Server
	r       *Router
	router  *httptest.Server
}

// newServedStack starts the stack. The latency target is lifted so a
// slow race-instrumented run cannot brown the replica out: the
// differential tests compare exact answers.
func newServedStack(t *testing.T) *servedStack {
	t.Helper()
	st := &servedStack{s: serve.New(serve.Options{DegradeTargetP99: time.Hour})}
	st.replica = httptest.NewServer(serve.NewHandler(st.s))
	st.r = New(Options{Replicas: []string{st.replica.URL}})
	st.router = httptest.NewServer(NewHandler(st.r))
	return st
}

func (st *servedStack) close() {
	st.router.Close()
	st.r.Close()
	st.replica.Close()
	st.s.Close()
}

// postWire posts body to base+path and decodes a 200 answer into out.
func postWire(t *testing.T, base, path string, body []byte, out any) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s%s: %v", base, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s%s: reading the answer: %v", base, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s%s = %d: %s", base, path, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("POST %s%s: malformed answer (%d bytes): %v", base, path, len(data), err)
	}
}

// differentialGraphs are the seeded graphs of the differential test:
// random consistent graphs, random regular multirate graphs and every
// reducible benchmark, so the reduction fixpoint and its lift sit on
// the served path of most of them.
func differentialGraphs(t *testing.T) []*sdf.Graph {
	t.Helper()
	var out []*sdf.Graph
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 3 + rng.Intn(8), MaxRep: 1 + rng.Int63n(4), MaxExec: 10,
			Chords: rng.Intn(4), SelfLoop: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.SetName(fmt.Sprintf("random-%d", seed))
		out = append(out, g)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		g, err := gen.RandomRegularMultirate(rng, gen.RegularOptions{
			Groups: 2 + rng.Intn(3), Copies: 2 + rng.Intn(3), Links: 1 + rng.Intn(3), MaxExec: 10,
		}, 1+rng.Int63n(3))
		if err != nil {
			t.Fatal(err)
		}
		g.SetName(fmt.Sprintf("regular-%d", seed))
		out = append(out, g)
	}
	for _, c := range benchmarks.Reducible() {
		out = append(out, c.Graph())
	}
	// None of the graphs above reduces at a scale other than 1. Here the
	// dead source A leaves a B-C cycle whose repetition vector halves, so
	// the reduced period is half the original and only a correct lift
	// answers 14.
	g := sdf.NewGraph("scaled-periphery")
	a, b, c := g.MustAddActor("A", 3), g.MustAddActor("B", 2), g.MustAddActor("C", 5)
	g.MustAddChannel(a, b, 2, 1, 0)
	g.MustAddChannel(b, c, 1, 1, 0)
	g.MustAddChannel(c, b, 1, 1, 1)
	return append(out, g)
}

// sameThroughput fails unless the payload is verified and carries the
// local answer in exact rationals.
func sameThroughput(t *testing.T, where string, want analysis.Throughput, unbounded, verified bool, num, den int64) {
	t.Helper()
	if !verified {
		t.Errorf("%s: answer not verified", where)
	}
	if unbounded != want.Unbounded {
		t.Errorf("%s: unbounded = %v, want %v", where, unbounded, want.Unbounded)
		return
	}
	if want.Unbounded {
		return
	}
	got, err := rat.New(num, den)
	if err != nil {
		t.Errorf("%s: period %d/%d: %v", where, num, den, err)
		return
	}
	if !got.Equal(want.Period) {
		t.Errorf("%s: period %v, want %v", where, got, want.Period)
	}
}

// TestDifferentialServedThroughput: for every seeded graph the local
// certified matrix answer on the unreduced graph equals, in exact
// rationals, the verified answer of Server.Analyze, of the replica over
// HTTP, of the router in front of it, and of the same graph sent as a
// /v1/batch item through the router.
func TestDifferentialServedThroughput(t *testing.T) {
	defer noLeaks(t)
	st := newServedStack(t)
	defer st.close()
	ctx := context.Background()

	graphs := differentialGraphs(t)
	want := make([]analysis.Throughput, len(graphs))
	items := make([]serve.RequestPayload, len(graphs))
	for i, g := range graphs {
		tp, _, err := analysis.ComputeThroughputCertified(ctx, g, analysis.Matrix)
		if err != nil {
			t.Fatalf("%s: local matrix engine: %v", g.Name(), err)
		}
		want[i] = tp
		items[i] = serve.RequestPayload{GraphText: sdfio.TextString(g)}
		body, err := json.Marshal(items[i])
		if err != nil {
			t.Fatal(err)
		}

		req, err := serve.DecodeRequest(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", g.Name(), err)
		}
		res, err := st.s.Analyze(ctx, req)
		if err != nil {
			t.Fatalf("%s: Server.Analyze: %v", g.Name(), err)
		}
		sameThroughput(t, g.Name()+" in-process", tp, res.Unbounded, res.Verified, res.PeriodNum, res.PeriodDen)

		for _, hop := range []struct{ name, base string }{{"replica", st.replica.URL}, {"router", st.router.URL}} {
			var wire serve.ResultPayload
			postWire(t, hop.base, "/v1/throughput", body, &wire)
			sameThroughput(t, g.Name()+" "+hop.name, tp, wire.Unbounded, wire.Verified, wire.PeriodNum, wire.PeriodDen)
		}
	}

	body, err := json.Marshal(serve.BatchRequestPayload{Items: items, DeadlineMS: 60000})
	if err != nil {
		t.Fatal(err)
	}
	var batch serve.BatchResultPayload
	postWire(t, st.router.URL, "/v1/batch", body, &batch)
	if len(batch.Items) != len(graphs) {
		t.Fatalf("batch answered %d items, want %d", len(batch.Items), len(graphs))
	}
	for _, it := range batch.Items {
		g := graphs[it.Index]
		if it.Status != "ok" || it.Result == nil {
			t.Errorf("%s batch item: status %q error %+v, want ok", g.Name(), it.Status, it.Error)
			continue
		}
		r := it.Result
		sameThroughput(t, g.Name()+" batch item", want[it.Index], r.Unbounded, r.Verified, r.PeriodNum, r.PeriodDen)
	}
}

// differentialModel draws a seeded FSM-SADF model: a token ring under
// scenarios differing in execution times, and a strongly connected FSM
// (a cycle through every state plus random extra transitions).
func differentialModel(seed int64) *sadf.Model {
	rng := rand.New(rand.NewSource(seed))
	ring := 3 + rng.Intn(5)
	states := 2 + rng.Intn(4)
	scenarios := 2 + rng.Intn(states-1)
	m := &sadf.Model{Name: fmt.Sprintf("diff-%d", seed)}
	for k := 0; k < scenarios; k++ {
		g := sdf.NewGraph(fmt.Sprintf("scn%d", k))
		for a := 0; a < ring; a++ {
			g.MustAddActor(fmt.Sprintf("A%d", a), 1+rng.Int63n(9))
		}
		for a := 0; a < ring; a++ {
			g.MustAddChannelByName(fmt.Sprintf("A%d", a), fmt.Sprintf("A%d", (a+1)%ring), 1, 1, 1)
		}
		m.Scenarios = append(m.Scenarios, sadf.Scenario{Name: fmt.Sprintf("s%d", k), Graph: g})
	}
	for q := 0; q < states; q++ {
		scn := q
		if q >= scenarios {
			scn = rng.Intn(scenarios)
		}
		m.States = append(m.States, sadf.State{Name: fmt.Sprintf("q%d", q), Scenario: fmt.Sprintf("s%d", scn)})
	}
	seen := map[[2]int]bool{}
	for q := 0; q < states; q++ {
		for _, to := range []int{(q + 1) % states, rng.Intn(states)} {
			if !seen[[2]int{q, to}] {
				seen[[2]int{q, to}] = true
				m.Transitions = append(m.Transitions, sadf.Transition{From: fmt.Sprintf("q%d", q), To: fmt.Sprintf("q%d", to)})
			}
		}
	}
	m.Initial = "q0"
	return m
}

// reprove rebuilds a wire certificate against the client's own model and
// re-checks it in exact arithmetic.
func reprove(t *testing.T, where string, m *sadf.Model, res *serve.SADFResultPayload) {
	t.Helper()
	if !res.Verified || res.Cert == nil {
		t.Errorf("%s: answer not certified (verified %v)", where, res.Verified)
		return
	}
	cert, err := res.Cert.Cert(m)
	if err != nil {
		t.Errorf("%s: rebuilding the certificate: %v", where, err)
		return
	}
	graphs, err := res.Cert.CertGraphs(m)
	if err != nil {
		t.Errorf("%s: %v", where, err)
		return
	}
	if err := cert.Check(context.Background(), graphs); err != nil {
		t.Errorf("%s: certificate rejected: %v", where, err)
	}
}

// TestDifferentialServedSADF: for seeded FSM-SADF models the local
// sadf.Analyze answer equals, in exact rationals, AnalyzeSADF, the
// replica over HTTP and the routed answer, and every wire certificate
// rebuilds against the client's model and re-checks.
func TestDifferentialServedSADF(t *testing.T) {
	defer noLeaks(t)
	st := newServedStack(t)
	defer st.close()
	ctx := context.Background()

	for seed := int64(1); seed <= 8; seed++ {
		m := differentialModel(seed)
		if err := m.Validate(); err != nil {
			t.Fatalf("model %d: %v", seed, err)
		}
		want, _, err := sadf.Analyze(ctx, m)
		if err != nil {
			t.Fatalf("%s: local analysis: %v", m.Name, err)
		}
		wantTP := analysis.Throughput{Period: want.Period, Unbounded: want.Unbounded}
		body, err := json.Marshal(serve.SADFRequestPayload{ModelText: sdfio.SADFTextString(m)})
		if err != nil {
			t.Fatal(err)
		}

		req, err := serve.DecodeSADFRequest(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Name, err)
		}
		res, err := st.s.AnalyzeSADF(ctx, req)
		if err != nil {
			t.Fatalf("%s: AnalyzeSADF: %v", m.Name, err)
		}
		sameThroughput(t, m.Name+" in-process", wantTP, res.Unbounded, res.Verified, res.PeriodNum, res.PeriodDen)
		reprove(t, m.Name+" in-process", m, res)

		for _, hop := range []struct{ name, base string }{{"replica", st.replica.URL}, {"router", st.router.URL}} {
			var wire serve.SADFResultPayload
			postWire(t, hop.base, "/v1/sadf", body, &wire)
			sameThroughput(t, m.Name+" "+hop.name, wantTP, wire.Unbounded, wire.Verified, wire.PeriodNum, wire.PeriodDen)
			reprove(t, m.Name+" "+hop.name, m, &wire)
		}
	}
}

// wireVerdict is what a client sees of a refusal or a batch: the HTTP
// status, the kind (the error payload's, or the batch's), and the kind
// of every batch item error.
type wireVerdict struct {
	status    int
	kind      string
	itemKinds []string
}

func verdictOf(t *testing.T, h http.Handler, path string, body []byte) wireVerdict {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	v := wireVerdict{status: rec.Code}
	if rec.Code != http.StatusOK {
		var ep serve.ErrorPayload
		if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil {
			t.Fatalf("POST %s = %d with a body that is no error payload: %.200s", path, rec.Code, rec.Body)
		}
		v.kind = ep.Kind
		return v
	}
	var batch serve.BatchResultPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatalf("POST %s = 200 with a body that is no batch answer: %.200s", path, rec.Body)
	}
	v.kind = batch.Kind
	for _, it := range batch.Items {
		if it.Error != nil {
			v.itemKinds = append(v.itemKinds, it.Error.Kind)
		}
	}
	return v
}

// TestErrorKindsReplicaMatchesRouter: for every endpoint, an oversized
// body, malformed JSON and an invalid graph or model get the same
// status and kind from the router as from a replica — the router reads
// and decodes through the replicas' own caps, decoders and kind table.
func TestErrorKindsReplicaMatchesRouter(t *testing.T) {
	defer noLeaks(t)
	st := newServedStack(t)
	defer st.close()
	replica, router := serve.NewHandler(st.s), NewHandler(st.r)

	const badGraph = `{"graph_text":"sdf x\nchan A B 1 1 0\n"}`
	cases := []struct {
		path, row string
		body      []byte
		want      wireVerdict
	}{
		{"/v1/throughput", "oversized", bytes.Repeat([]byte(" "), serve.MaxRequestBytes+1),
			wireVerdict{status: http.StatusRequestEntityTooLarge, kind: "too-large"}},
		{"/v1/throughput", "malformed", []byte(`{"graph_text":`),
			wireVerdict{status: http.StatusBadRequest, kind: "bad-request"}},
		{"/v1/throughput", "invalid graph", []byte(badGraph),
			wireVerdict{status: http.StatusBadRequest, kind: "bad-request"}},
		{"/v1/sadf", "oversized", bytes.Repeat([]byte(" "), serve.MaxSADFRequestBytes+1),
			wireVerdict{status: http.StatusRequestEntityTooLarge, kind: "too-large"}},
		{"/v1/sadf", "malformed", []byte(`{"model_text":`),
			wireVerdict{status: http.StatusBadRequest, kind: "bad-request"}},
		{"/v1/sadf", "invalid model", []byte(`{"model_text":"sadf broken\nscenario"}`),
			wireVerdict{status: http.StatusBadRequest, kind: "sadf-model"}},
		{"/v1/batch", "oversized", bytes.Repeat([]byte(" "), serve.MaxBatchRequestBytes+1),
			wireVerdict{status: http.StatusRequestEntityTooLarge, kind: "too-large"}},
		{"/v1/batch", "malformed", []byte(`{"items":`),
			wireVerdict{status: http.StatusBadRequest, kind: "bad-request"}},
		{"/v1/batch", "invalid graph", []byte(`{"items":[` + badGraph + `]}`),
			wireVerdict{status: http.StatusOK, kind: "partial", itemKinds: []string{"bad-request"}}},
	}
	for _, c := range cases {
		got := map[string]wireVerdict{
			"replica": verdictOf(t, replica, c.path, c.body),
			"router":  verdictOf(t, router, c.path, c.body),
		}
		for side, v := range got {
			if fmt.Sprint(v) != fmt.Sprint(c.want) {
				t.Errorf("%s %s via %s = %+v, want %+v", c.path, c.row, side, v, c.want)
			}
		}
	}
}
