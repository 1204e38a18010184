package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/serve"
)

// cmdBatch analyses many graphs in one POST /v1/batch round trip against
// a running sdfserved daemon or sdfrouter fleet. The input is a
// multi-graph file: either concatenated native text (each graph starts
// at its "sdf <name>" header) or JSON — a ready-made batch object
// ({"items": [...]}) sent verbatim, or a single JSON graph treated as a
// one-item batch. The per-item results are rendered as a table, and the
// process exit code reflects the worst item: a 97-ok/3-error batch
// prints 100 rows and exits with the worst failing item's code.
func cmdBatch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "base URL of the sdfserved daemon or sdfrouter")
	deadline := fs.Duration("deadline", 0, "shared wall-clock budget for the whole batch (0 = server default)")
	method := fs.String("method", "hedged", "engine for every item: hedged, matrix, statespace or hsdf")
	timeout := fs.Duration("timeout", 0, "per-item analysis deadline (0 = the server's carved share of the batch deadline)")
	budget := fs.Int64("budget", 0, "uniform work cap for every item (0 = defaults, negative = unlimited)")
	format := fs.String("format", "", "input format: text or json (default: by extension)")
	asJSON := fs.Bool("json", false, "emit the raw batch result JSON instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one multi-graph file argument")
	}
	payload, err := loadBatch(fs.Arg(0), *format, *method, *timeout, *budget)
	if err != nil {
		return err
	}
	if *deadline > 0 {
		payload.DeadlineMS = deadline.Milliseconds()
	}

	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	// Batch-level refusals (a draining router, a dark fleet, malformed
	// batch JSON) arrive as error payloads and map onto the usual
	// exit-code table; a processed batch is always HTTP 200 with per-item
	// outcomes inside.
	var res serve.BatchResultPayload
	raw, err := post(strings.TrimRight(*server, "/"), "/v1/batch", body, *deadline, &res)
	if err != nil {
		return err
	}
	if *asJSON {
		_, err := out.Write(raw)
		return err
	}
	printBatch(out, *server, &res)
	if code := worstExitCode(&res); code != 0 {
		return &batchError{code: code, ok: res.OK, errs: res.Errors}
	}
	return nil
}

// loadBatch reads the multi-graph input file into the batch wire form,
// applying the uniform per-item flags. Items are shipped unvalidated:
// per-item fault isolation is the server's contract, so a malformed
// graph becomes that item's error entry instead of a local refusal.
func loadBatch(path, format, method string, timeout time.Duration, budget int64) (*serve.BatchRequestPayload, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	if format == "" {
		if strings.ToLower(filepath.Ext(path)) == ".json" {
			format = "json"
		} else {
			format = "text"
		}
	}
	item := func(p serve.RequestPayload) serve.RequestPayload {
		p.Method = method
		p.TimeoutMS = timeout.Milliseconds()
		p.Budget = budget
		return p
	}
	switch format {
	case "json":
		// A ready-made batch object is sent verbatim (its items keep
		// their own methods and budgets); anything else must be a single
		// JSON graph, wrapped as a one-item batch.
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var bp serve.BatchRequestPayload
		if err := dec.Decode(&bp); err == nil && !dec.More() && len(bp.Items) > 0 {
			return &bp, nil
		}
		return &serve.BatchRequestPayload{
			Items: []serve.RequestPayload{item(serve.RequestPayload{Graph: json.RawMessage(data)})},
		}, nil
	case "text":
		chunks := splitGraphsText(string(data))
		if len(chunks) == 0 {
			return nil, fmt.Errorf("%s: no graphs found", path)
		}
		bp := &serve.BatchRequestPayload{Items: make([]serve.RequestPayload, len(chunks))}
		for i, c := range chunks {
			bp.Items[i] = item(serve.RequestPayload{GraphText: c})
		}
		return bp, nil
	default:
		return nil, fmt.Errorf("unknown input format %q (text, json)", format)
	}
}

// splitGraphsText splits concatenated native text into one chunk per
// graph. The text reader itself merges every directive it sees into a
// single graph, so the batch boundary is drawn here: a new chunk starts
// at each "sdf <name>" header once the current chunk holds directives.
// Comments and blank lines between graphs attach to the graph that
// follows them.
func splitGraphsText(data string) []string {
	var chunks []string
	var cur []string
	directives := false
	flush := func() {
		if directives {
			chunks = append(chunks, strings.Join(cur, "\n")+"\n")
		}
		cur, directives = nil, false
	}
	for _, line := range strings.Split(data, "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "sdf ") && directives {
			flush()
		}
		cur = append(cur, line)
		if t != "" && !strings.HasPrefix(t, "#") {
			directives = true
		}
	}
	flush()
	return chunks
}

// printBatch renders the per-item table.
func printBatch(out io.Writer, server string, res *serve.BatchResultPayload) {
	fmt.Fprintf(out, "batch:      %s (%s: %d ok, %d error)\n", server, res.Kind, res.OK, res.Errors)
	fmt.Fprintf(out, "  %4s  %-16s %-11s %-12s %-11s %s\n", "#", "graph", "status", "period", "engine", "detail")
	for _, it := range res.Items {
		name := it.Graph
		if name == "" {
			name = "-"
		}
		period, engine, detail := "-", "-", ""
		switch {
		case it.Error != nil:
			detail = it.Error.Kind + ": " + it.Error.Error
		case it.Result != nil:
			r := it.Result
			engine = r.Engine
			switch {
			case r.Unbounded:
				period = "unbounded"
			case it.Status == "bounded":
				period = "<=" + r.Period
			default:
				period = r.Period
			}
			switch {
			case r.Verified:
				detail = "verified: " + r.Certificate
			case r.Degradation != "":
				detail = "degraded: " + r.Degradation
			}
			if r.Cached {
				detail += " (cached)"
			}
		}
		fmt.Fprintf(out, "  %4d  %-16s %-11s %-12s %-11s %s\n",
			it.Index, name, it.Status, period, engine, strings.TrimSpace(detail))
	}
}

// batchError carries a processed batch's worst-item exit code through
// main's error path: the batch round trip succeeded, but at least one
// item failed and the process must say so.
type batchError struct {
	code     int
	ok, errs int
}

func (e *batchError) Error() string {
	return fmt.Sprintf("batch partial: %d items failed (%d ok); exit reflects the worst item", e.errs, e.ok)
}

// worstExitCode folds a processed batch onto one process exit code: the
// maximum of every entry's own code, so a single strangled item in an
// otherwise clean batch is visible to scripts.
func worstExitCode(res *serve.BatchResultPayload) int {
	worst := batchExitCode(res.Kind, "")
	for _, it := range res.Items {
		kind := ""
		if it.Error != nil {
			kind = it.Error.Kind
		}
		if c := batchExitCode(it.Status, kind); c > worst {
			worst = c
		}
	}
	return worst
}

// batchExitCode maps one batch wire classification — an item status
// from serve.ItemStatusOf or a batch kind from serve.BatchKindOf — onto
// the exit-code table. The sdfvet kindmap check verifies every batch
// wire string has an explicit case here, exactly as it does for error
// kinds in remoteError.exitCode (which this table delegates to for
// item-error entries, so item failure kinds inherit the documented
// codes: a budget-strangled item exits 3, a panicking one 4).
func batchExitCode(status, kind string) int {
	switch status {
	case "ok":
		return 0
	case "bounded", "degraded":
		// Brownout answers are successes: certified bounds and stale
		// results are the contract under pressure, not failures.
		return 0
	case "complete":
		return 0
	case "partial":
		// The batch-level kind only says "look at the items"; the
		// per-item entries carry the codes that worstExitCode folds.
		return 0
	case "item-error":
		return (&remoteError{kind: kind}).exitCode()
	default: // unknown statuses from future servers
		return 1
	}
}
