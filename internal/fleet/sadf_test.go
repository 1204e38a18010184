package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sadf"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/serve"
)

const fleetSADFModel = `sadf wlan
scenario lo
actor A 1
actor B 2
chan A B 1 1 1
chan B A 1 1 1
scenario hi
actor A 5
actor B 3
chan A B 1 1 1
chan B A 1 1 1
state slo lo
state shi hi
trans slo shi
trans shi slo
trans slo slo
trans shi shi
initial slo
`

func postSADF(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sadf", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestSADFThroughFleet is the acceptance path behind the router: a real
// replica analyses the model, the router relays the answer verbatim,
// and the client rebuilds the certificate from the relayed payload and
// re-checks it against its own parse of the model — the proof survives
// the extra hop.
func TestSADFThroughFleet(t *testing.T) {
	defer noLeaks(t)
	s := serve.New(serve.Options{})
	defer s.Close()
	backend := httptest.NewServer(serve.NewHandler(s))
	defer backend.Close()
	r := New(Options{Replicas: []string{backend.URL}})
	defer r.Close()
	h := NewHandler(r)

	body, err := json.Marshal(serve.SADFRequestPayload{ModelText: fleetSADFModel})
	if err != nil {
		t.Fatal(err)
	}
	rec := postSADF(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-SDF-Replica") == "" {
		t.Error("relayed answer does not name its replica")
	}
	var res serve.SADFResultPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Period != "4" || !res.Verified || res.Cert == nil {
		t.Fatalf("relayed answer = period %q verified %v cert %v, want verified period 4",
			res.Period, res.Verified, res.Cert != nil)
	}
	m, err := sdfio.ParseSADFText(fleetSADFModel)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := res.Cert.Cert(m)
	if err != nil {
		t.Fatalf("rebuilding relayed certificate: %v", err)
	}
	graphs, err := res.Cert.CertGraphs(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Check(context.Background(), graphs); err != nil {
		t.Fatalf("relayed certificate rejected: %v", err)
	}
}

// TestSADFBadModelBouncesAtRouter: a malformed model never consumes a
// replica attempt and reports the replicas' own error kind.
func TestSADFBadModelBouncesAtRouter(t *testing.T) {
	defer noLeaks(t)
	hits := 0
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		hits++
	}))
	defer backend.Close()
	r := New(Options{Replicas: []string{backend.URL}})
	defer r.Close()
	h := NewHandler(r)

	rec := postSADF(t, h, []byte(`{"model_text":"sadf broken\nscenario"}`))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed model = %d, want 400", rec.Code)
	}
	var ep serve.ErrorPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil || ep.Kind != "sadf-model" {
		t.Errorf("payload = %s (err %v), want kind sadf-model", rec.Body, err)
	}
	if hits != 0 {
		t.Errorf("malformed model reached a replica %d times, want 0", hits)
	}
}

// ringLadderModel is the largest model of the sdfbench -sadf ladder: a
// ring of actors with one token per channel under scenarios that differ
// only in execution times, and an FSM cycling through every scenario
// state with a self-loop on each.
func ringLadderModel(t *testing.T, scenarios, ring int) *sadf.Model {
	t.Helper()
	m := &sadf.Model{Name: fmt.Sprintf("synth-s%d-r%d", scenarios, ring)}
	for k := 0; k < scenarios; k++ {
		g := sdf.NewGraph(fmt.Sprintf("scn%d", k))
		for i := 0; i < ring; i++ {
			g.MustAddActor(fmt.Sprintf("A%d", i), int64(1+(i*7+k*3)%5))
		}
		for i := 0; i < ring; i++ {
			g.MustAddChannelByName(fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", (i+1)%ring), 1, 1, 1)
		}
		m.Scenarios = append(m.Scenarios, sadf.Scenario{Name: fmt.Sprintf("s%d", k), Graph: g})
	}
	for k := 0; k < scenarios; k++ {
		q := fmt.Sprintf("q%d", k)
		m.States = append(m.States, sadf.State{Name: q, Scenario: fmt.Sprintf("s%d", k)})
		m.Transitions = append(m.Transitions,
			sadf.Transition{From: q, To: fmt.Sprintf("q%d", (k+1)%scenarios)},
			sadf.Transition{From: q, To: q})
	}
	m.Initial = "q0"
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSADFLargeAnswerThroughFleet: an answer past 4 MiB (the 16 x 128
// ladder model's certificate carries 16 dense 128 x 128 matrices) is
// relayed whole, not cut to a prefix, and its certificate re-proves
// after the hop.
func TestSADFLargeAnswerThroughFleet(t *testing.T) {
	defer noLeaks(t)
	s := serve.New(serve.Options{DefaultTimeout: time.Minute})
	defer s.Close()
	backend := httptest.NewServer(serve.NewHandler(s))
	defer backend.Close()
	r := New(Options{Replicas: []string{backend.URL}})
	defer r.Close()
	h := NewHandler(r)

	m := ringLadderModel(t, 16, 128)
	body, err := json.Marshal(serve.SADFRequestPayload{ModelText: sdfio.SADFTextString(m)})
	if err != nil {
		t.Fatal(err)
	}
	rec := postSADF(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %.200s)", rec.Code, rec.Body)
	}
	if n := rec.Body.Len(); n <= 4<<20 {
		t.Fatalf("relayed answer is %d bytes, want the replica's whole answer (past 4 MiB), not a prefix", n)
	}
	var res serve.SADFResultPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("relayed answer does not parse: %v", err)
	}
	if !res.Verified || res.Cert == nil {
		t.Fatalf("relayed answer not certified (verified %v)", res.Verified)
	}
	cert, err := res.Cert.Cert(m)
	if err != nil {
		t.Fatalf("rebuilding relayed certificate: %v", err)
	}
	graphs, err := res.Cert.CertGraphs(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Check(context.Background(), graphs); err != nil {
		t.Fatalf("relayed certificate rejected: %v", err)
	}
}
