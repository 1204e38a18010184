package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sadf"
	"repro/internal/sdfio"
)

// TestHTTPSADFHowardCap: the generated models on which Howard's
// iteration hits its cap are answered 200 over /v1/sadf with the period
// sadf.Analyze finds, and the wire certificate re-checks after the JSON
// round trip.
func TestHTTPSADFHowardCap(t *testing.T) {
	defer noLeaks(t)
	// The analyses take seconds under the race detector: neither the
	// default deadline nor latency-driven brownout may turn them into
	// refusals or bounded answers.
	s := New(Options{DefaultTimeout: time.Minute, DegradeTargetP99: time.Hour})
	defer s.Close()
	h := NewHandler(s)
	for _, name := range []string{"howard-cap-ring4-s3-q21.txt", "howard-cap-ring5-s5-q28.txt"} {
		t.Run(name, func(t *testing.T) {
			text, err := os.ReadFile(filepath.Join("..", "sadf", "testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			m, err := sdfio.ParseSADFText(string(text))
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := sadf.Analyze(context.Background(), m)
			if err != nil {
				t.Fatalf("sadf.Analyze: %v", err)
			}
			body, err := json.Marshal(SADFRequestPayload{ModelText: string(text)})
			if err != nil {
				t.Fatal(err)
			}
			rec := postJSON(t, h, "/v1/sadf", string(body))
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d, want 200 (body %s)", rec.Code, rec.Body)
			}
			var res SADFResultPayload
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			if res.Period != want.Period.String() || !res.Verified || res.Cert == nil {
				t.Fatalf("wire answer: period %q verified %v, want verified %v", res.Period, res.Verified, want.Period)
			}
			cert, err := res.Cert.Cert(m)
			if err != nil {
				t.Fatal(err)
			}
			graphs, err := res.Cert.CertGraphs(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := cert.Check(context.Background(), graphs); err != nil {
				t.Fatalf("wire certificate rejected: %v", err)
			}
		})
	}
}
