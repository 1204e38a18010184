package main

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/rat"
	"repro/internal/serve"
)

func mustRat(t *testing.T, num, den int64) rat.Rat {
	t.Helper()
	r, err := rat.New(num, den)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// answered is the sample of a 200 answer to in, its body kept.
func answered(t *testing.T, in *input, body []byte) *sample {
	t.Helper()
	answers, err := decodeAnswers(in.path, len(in.refs), body)
	if err != nil {
		t.Fatal(err)
	}
	return &sample{idx: in.idx, path: in.path, refs: in.refs, status: 200, body: body, answers: answers, in: in}
}

func TestJudgeRejectsWrongPeriodAndLooseBound(t *testing.T) {
	ref := reference{period: mustRat(t, 5, 2)}
	cases := []struct {
		name string
		a    answer
		want verdict
	}{
		{"exact equal", answer{verified: true, periodNum: 5, periodDen: 2}, exact},
		{"wrong period", answer{verified: true, periodNum: 3, periodDen: 1}, failed},
		{"unverified", answer{periodNum: 5, periodDen: 2}, failed},
		{"claims unbounded", answer{verified: true, unbounded: true}, failed},
		{"enclosing bound", answer{degradation: "bounded", periodNum: 3, periodDen: 1, lowerNum: 2, lowerDen: 1}, degraded},
		{"bound below reference", answer{degradation: "bounded", periodNum: 2, periodDen: 1}, failed},
		{"floor above reference", answer{degradation: "bounded", periodNum: 4, periodDen: 1, lowerNum: 3, lowerDen: 1}, failed},
		{"stale equal", answer{verified: true, degradation: "stale-cache", periodNum: 5, periodDen: 2}, degraded},
		{"stale wrong", answer{verified: true, degradation: "stale-cache", periodNum: 7, periodDen: 2}, failed},
	}
	for _, c := range cases {
		got, err := judge(c.a, ref)
		if got != c.want {
			t.Errorf("%s: verdict %v (%v), want %v", c.name, got, err, c.want)
		}
		if (got == failed) != (err != nil) {
			t.Errorf("%s: verdict %v with error %v", c.name, got, err)
		}
	}
}

// TestGraphReference computes references for one whole block of the
// single-graph stream: every paper graph (mp3 playback and satellite
// exceed the oracle's HSDF budget, so their certified matrix answer
// stands alone), the reducible families and the random graphs.
func TestGraphReference(t *testing.T) {
	ctx := context.Background()
	w, err := newWorkload(ctx, "single-cold", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blockSize; i++ {
		in := w.input(i)
		g := in.graphs[0]
		ref, err := graphReference(ctx, g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if ref.unbounded {
			t.Errorf("%s: generated graph is unbounded", g.Name())
		}
	}
}

// TestOracleChecksServedAnswers runs real served answers through the
// oracle and then corrupts them: a wrong period and a non-enclosing
// bound must both be rejected, and so must a sadf answer whose wire
// certificate was tampered with.
func TestOracleChecksServedAnswers(t *testing.T) {
	ctx := context.Background()
	srv := serve.New(serve.Options{Obs: obs.New()})
	defer srv.Close()

	w, _ := newWorkload(ctx, "single-cold", 4)
	orc := newOracle(w)
	in := w.input(0)
	req, err := serve.DecodeRequest(in.body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(res)
	if out := orc.check(ctx, answered(t, in, body)); out.verdicts[0] != exact {
		t.Fatalf("served answer judged %v: %v", out.verdicts[0], out.errs[0])
	}
	wrong := *res
	wrong.PeriodNum++
	body, _ = json.Marshal(&wrong)
	if out := orc.check(ctx, answered(t, in, body)); out.verdicts[0] != failed {
		t.Errorf("wrong period judged %v", out.verdicts[0])
	}
	loose := *res
	loose.Degradation = "bounded"
	loose.PeriodNum, loose.PeriodDen = 1, 1000
	body, _ = json.Marshal(&loose)
	if out := orc.check(ctx, answered(t, in, body)); out.verdicts[0] != failed {
		t.Errorf("non-enclosing bound judged %v", out.verdicts[0])
	}

	sw, err := newWorkload(ctx, "sadf-cold", 4)
	if err != nil {
		t.Fatal(err)
	}
	orc = newOracle(sw)
	sin := sw.input(0)
	sreq, err := serve.DecodeSADFRequest(sin.body)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := srv.AnalyzeSADF(ctx, sreq)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(sres)
	if out := orc.check(ctx, answered(t, sin, body)); out.verdicts[0] != exact {
		t.Fatalf("served sadf answer judged %v: %v", out.verdicts[0], out.errs[0])
	}
	tampered := *sres
	cert := *sres.Cert
	cert.PeriodNum++
	tampered.Cert = &cert
	body, _ = json.Marshal(&tampered)
	if out := orc.check(ctx, answered(t, sin, body)); out.verdicts[0] != failed {
		t.Errorf("tampered sadf certificate judged %v", out.verdicts[0])
	}
}

func TestStreamIsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := newWorkload(context.Background(), name, 7)
		b, _ := newWorkload(context.Background(), name, 7)
		c, _ := newWorkload(context.Background(), name, 8)
		same, differ := true, false
		for i := 0; i < 8; i++ {
			x, y, z := a.input(i), b.input(i), c.input(i)
			same = same && string(x.body) == string(y.body)
			differ = differ || string(x.body) != string(z.body)
		}
		if !same || !differ {
			t.Errorf("%s: same seed reproduces %v, other seed differs %v", name, same, differ)
		}
	}
}

func TestSingleStreamMix(t *testing.T) {
	w, _ := newWorkload(context.Background(), "single-cold", 9)
	kinds := map[string]int{}
	names := map[string]bool{}
	for i := 0; i < 4*blockSize; i++ {
		in := w.input(i)
		kinds[in.kind]++
		names[in.graphs[0].Name()] = true
	}
	if kinds["paper"] != 2*blockSize || kinds["reducible"] != blockSize || kinds["random"] != blockSize {
		t.Errorf("mix %v, want half paper, a quarter each reducible and random", kinds)
	}
	if len(names) != 4*blockSize {
		t.Errorf("%d distinct names in %d inputs: cold inputs must never repeat", len(names), 4*blockSize)
	}
}
