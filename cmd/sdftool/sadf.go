package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/sadf"
	"repro/internal/sdfio"
	"repro/internal/serve"
)

// loadSADFModel reads an FSM-SADF model from a file ("-" = stdin), in
// the native text format or JSON by extension (-format overrides).
func loadSADFModel(name, format string) (*sadf.Model, error) {
	var r io.Reader
	if name == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	if format == "" {
		if strings.EqualFold(filepath.Ext(name), ".json") {
			format = "json"
		} else {
			format = "text"
		}
	}
	switch format {
	case "json":
		return sdfio.ReadSADFJSON(r)
	case "text":
		return sdfio.ReadSADFText(r)
	default:
		return nil, fmt.Errorf("unknown sadf format %q (text or json)", format)
	}
}

// cmdSADF analyses an FSM-SADF model: worst-case throughput across all
// infinite scenario sequences the FSM admits, computed on the max-plus
// automaton of the per-scenario matrices. Locally by default; through a
// running sdfserved daemon (or the sdfrouter in front of a fleet) with
// -server. -verify re-checks the certificate against the local parse of
// the model in exact arithmetic — for remote answers that means
// rebuilding the certificate from the wire payload, so a lying or
// corrupted server (or any proxy between) cannot slip an unproven
// period past the client.
func cmdSADF(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sadf", flag.ContinueOnError)
	server := fs.String("server", "", "base URL of an sdfserved daemon or sdfrouter; empty analyses in-process")
	format := fs.String("format", "", "input format: text or json (default: by extension)")
	timeout := fs.Duration("timeout", 0, "analysis deadline (0 = none locally, server default remotely)")
	verifyF := fs.Bool("verify", false, "re-check the certificate against the local model in exact arithmetic")
	exactOnly := fs.Bool("exact-only", false, "refuse degraded answers from a browned-out server (exit 6)")
	asJSON := fs.Bool("json", false, "emit the raw result payload as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one sadf model file argument")
	}
	m, err := loadSADFModel(fs.Arg(0), *format)
	if err != nil {
		return err
	}
	if *server != "" {
		return sadfRemote(out, m, strings.TrimRight(*server, "/"), *timeout, *verifyF, *exactOnly, *asJSON)
	}
	return sadfLocal(out, m, *timeout, *verifyF, *asJSON)
}

func sadfLocal(out io.Writer, m *sadf.Model, timeout time.Duration, verifyF, asJSON bool) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, cert, err := sadf.Analyze(ctx, m)
	if err != nil {
		return err
	}
	certLine := ""
	if verifyF {
		if err := cert.Check(ctx, m.Graphs()); err != nil {
			return err
		}
		certLine = cert.String()
	}
	if asJSON {
		payload := struct {
			*sadf.Result
			Verified    bool   `json:"verified"`
			Certificate string `json:"certificate,omitempty"`
		}{res, verifyF, certLine}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(payload)
	}
	fmt.Fprintf(out, "model:      %s (%d scenarios, %d states, %d shared tokens)\n",
		m.Name, len(m.Scenarios), len(m.States), res.Tokens)
	fmt.Fprintf(out, "automaton:  %d nodes, %d edges\n", res.AutomatonNodes, res.AutomatonEdges)
	if res.Unbounded {
		fmt.Fprintln(out, "worst-case period: unbounded (the FSM admits no infinite scenario sequence with a dependency cycle)")
	} else {
		fmt.Fprintf(out, "worst-case period: %s", res.Period)
		if len(res.CriticalStates) > 0 {
			fmt.Fprintf(out, " (critical states: %s)", strings.Join(res.CriticalStates, ", "))
		}
		fmt.Fprintln(out)
	}
	if certLine != "" {
		fmt.Fprintf(out, "verified: %s\n", certLine)
	}
	return nil
}

func sadfRemote(out io.Writer, m *sadf.Model, server string, timeout time.Duration, verifyF, exactOnly, asJSON bool) error {
	body, err := json.Marshal(serve.SADFRequestPayload{
		ModelText: sdfio.SADFTextString(m),
		TimeoutMS: timeout.Milliseconds(),
		ExactOnly: exactOnly,
	})
	if err != nil {
		return err
	}
	var res serve.SADFResultPayload
	if _, err := post(server, "/v1/sadf", body, timeout, &res); err != nil {
		return err
	}

	// The client-side certificate check: rebuild the server's witness
	// against our OWN parse of the model and re-verify. Degraded
	// answers carry no certificate and fail -verify honestly.
	if verifyF {
		if res.Cert == nil {
			return errors.New("server answer carries no certificate to verify (degraded answers are uncertified; drop -verify or retry without load)")
		}
		cert, err := res.Cert.Cert(m)
		if err != nil {
			return fmt.Errorf("server certificate does not fit the local model: %w", err)
		}
		graphs, err := res.Cert.CertGraphs(m)
		if err != nil {
			return err
		}
		if err := cert.Check(context.Background(), graphs); err != nil {
			return fmt.Errorf("server certificate rejected by the local checker: %w", err)
		}
	}

	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprintf(out, "model:      %s (%d scenarios, %d states, %d shared tokens)\n",
		res.Model, res.Scenarios, res.States, res.Tokens)
	if res.AutomatonNodes > 0 {
		fmt.Fprintf(out, "automaton:  %d nodes, %d edges\n", res.AutomatonNodes, res.AutomatonEdges)
	}
	switch {
	case res.Unbounded:
		fmt.Fprintln(out, "worst-case period: unbounded (the FSM admits no infinite scenario sequence with a dependency cycle)")
	case res.Degradation == "bounded":
		fmt.Fprintf(out, "worst-case period: <= %s (certified upper bound: worst scenario serial makespan)\n", res.Period)
		if res.PeriodLower != "" {
			fmt.Fprintf(out, "period enclosure: [%s, %s]\n", res.PeriodLower, res.Period)
		}
	default:
		fmt.Fprintf(out, "worst-case period: %s", res.Period)
		if len(res.Critical) > 0 {
			fmt.Fprintf(out, " (critical states: %s)", strings.Join(res.Critical, ", "))
		}
		fmt.Fprintln(out)
	}
	if verifyF && res.Cert != nil {
		fmt.Fprintf(out, "verified: %s (re-checked locally)\n", res.Certificate)
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
