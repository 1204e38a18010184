// Command servebench is the served-analysis benchmark: it brings up three
// serve.Server replicas behind one fleet.Router in this process, drives a
// seeded traffic mix through the router from a closed loop of client
// goroutines, checks every answer against an independent reference, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload single-cold --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the repository root, counted for the loc.* metrics.
	root string
	// clients is the closed loop's size: one client goroutine per CPU.
	clients int
}

func parseConfig(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := config{root: ".", clients: runtime.NumCPU()}
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&c.seed, "seed", 1, "workload seed; the same seed generates the same request stream")
	fs.Float64Var(&c.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() != 0 {
		return c, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	if c.seconds <= 0 {
		return c, fmt.Errorf("-seconds must be positive")
	}
	c.trace = trace == 1
	return c, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how often a run brings the fleet up to report the median
// set-up time; the last fleet is the one measured. Each set-up waits one
// probe interval for the router's first health-probe round, so the
// figure sits near 1s and the sub-millisecond jitter of starting
// listeners on a shared machine cannot move it by a visible share.
const setupReps = 3

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	cfg, err := parseConfig(args, stderr)
	if err != nil {
		return err
	}
	w, err := newWorkload(ctx, cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	res, err := benchmark(ctx, cfg, w, stderr)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res.shapeLine)
	line, err := json.Marshal(res.report)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// result is a finished run.
type result struct {
	report    report
	shapeLine string
}

func benchmark(ctx context.Context, cfg config, w *workload, stderr io.Writer) (*result, error) {
	// Loc counts come first: a checkout without the repository's sources
	// cannot be measured, and must fail before any fleet comes up.
	begin := time.Now()
	loc, err := countLines(cfg.root)
	if err != nil {
		return nil, err
	}
	hc := newClient(cfg.clients)
	defer hc.CloseIdleConnections()

	var tb *testbed
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if tb != nil {
			tb.close()
		}
		t0 := time.Now()
		sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		tb, err = startTestbed(sctx)
		if err == nil && w.warm {
			err = fill(sctx, hc, tb, w, cfg.clients)
		}
		cancel()
		if err != nil {
			if tb != nil {
				tb.close()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer tb.close()

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "servebench: %6.1fs "+format+"\n", append([]any{time.Since(begin).Seconds()}, args...)...)
	}
	logf("fleet up, setup median %.4fs", quantile(setups, 0.5))
	src := &inputSource{w: w}
	before := readCounters(tb)
	runtime.GC()
	cpu0 := cpuTime()
	var toggle *handlerClock
	if cfg.trace {
		toggle = tb.clock
	}
	ph := drive(ctx, hc, tb.url, src, cfg.clients, time.Duration(cfg.seconds*float64(time.Second)), toggle)
	cpu := cpuTime() - cpu0
	peakRSS := peakRSSMB()
	after := readCounters(tb)

	logf("timed phase: %d requests in %v", len(ph.samples), ph.wall)
	orc := newOracle(w)
	ev := evaluate(ctx, orc, ph, cfg.clients, stderr)
	logf("oracle checked %d answers", ev.units)
	metrics := map[string]metric{}
	if !cfg.trace {
		endToEnd(metrics, ev, ph, cpu, peakRSS, quantile(setups, 0.5))
	}
	shape := workloadShape(ctx, w, orc, ph, ev, before, after)
	logf("shape report done")
	if cfg.trace {
		tracedMetrics(metrics, ev, ph)
		counterMetrics(metrics, before, after, ev)
		fleetMetrics(metrics, tb, ph, before, after)
		layers, err := replayLayers(ctx, w)
		if err != nil {
			return nil, err
		}
		logf("layer replay done")
		for k, v := range layers {
			metrics[k] = v
		}
		for k, v := range shape.metrics() {
			metrics[k] = v
		}
		for k, v := range loc {
			metrics[k] = metric{Value: float64(v), Unit: "lines"}
		}
	}
	return &result{
		report: report{
			Correct:   ev.mismatches == 0,
			Attempted: ev.units,
			Failed:    ev.failedUnits,
			Metrics:   metrics,
		},
		shapeLine: shape.line(w, ev),
	}, nil
}

// fill sends every pool graph of a warm workload through the router until
// each has come back exact, so the replicas' caches hold the whole pool
// before the timed phase. A browned-out replica answers with a bound,
// which is not cached under the exact key; later rounds send the whole
// pool again (the cached part is cheap), which also gives the brownout
// controller the fresh latencies it needs to step back down.
func fill(ctx context.Context, hc *http.Client, tb *testbed, w *workload, conc int) error {
	done := make([]bool, len(w.pool))
	for round := 0; ; round++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < conc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(w.pool); i = int(next.Add(1) - 1) {
					if exactAnswer(send(ctx, hc, tb.url, w.pool[i], false)) {
						done[i] = true
					}
				}
			}()
		}
		wg.Wait()
		missing := 0
		for _, ok := range done {
			if !ok {
				missing++
			}
		}
		if missing == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%d pool graphs never came back exact: %w", missing, context.Cause(ctx))
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// exactAnswer reports whether a single-graph answer is full-fidelity and
// verified (the oracle judges its value later).
func exactAnswer(s sample) bool {
	return s.err == nil && s.status == http.StatusOK && len(s.answers) == 1 &&
		s.answers[0].verified && s.answers[0].degradation == ""
}

// evaluation is the oracle's reading of a timed phase.
type evaluation struct {
	outcomes    []outcome // parallel to phase.samples
	units       int       // answers attempted (batch items count one each)
	failedUnits int
	exactUnits  int
	answered    int // answers that came back consistent with the reference
	mismatches  int // answers the reference refutes
	// the same counts restricted to traced / untraced requests
	exactTraced, exactUntraced int
}

// evaluate judges every sample on conc goroutines and lists each failure
// by input.
func evaluate(ctx context.Context, orc *oracle, ph phase, conc int, stderr io.Writer) *evaluation {
	ev := &evaluation{outcomes: make([]outcome, len(ph.samples))}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ph.samples); i = int(next.Add(1) - 1) {
				ev.outcomes[i] = orc.check(ctx, &ph.samples[i])
			}
		}()
	}
	wg.Wait()
	listed := 0
	for i, s := range ph.samples {
		out := ev.outcomes[i]
		ev.mismatches += out.wrong
		for k, v := range out.verdicts {
			ev.units++
			switch v {
			case exact:
				ev.exactUnits++
				ev.answered++
				if s.traced {
					ev.exactTraced++
				} else {
					ev.exactUntraced++
				}
			case degraded:
				ev.answered++
			case failed:
				ev.failedUnits++
				if listed < 50 {
					fmt.Fprintf(stderr, "servebench: FAILED input %d (%s) answer %d: %v\n",
						s.idx, orc.input(&ph.samples[i]).name(k), k, out.errs[k])
				}
				listed++
			}
		}
	}
	if listed > 50 {
		fmt.Fprintf(stderr, "servebench: ... %d failures in all\n", listed)
	}
	return ev
}

// windowTicks is the number of slices per rate window: exact_per_s and
// cpu_ms_per_answer are medians over one-second windows of the phase, so
// a burst of outside load on a shared machine moves one window, not the
// run's figure.
const windowTicks = 4

// endToEnd fills the end-to-end metrics from an untraced phase.
func endToEnd(m map[string]metric, ev *evaluation, ph phase, cpu time.Duration, peakRSS, setup float64) {
	lat := make([]float64, 0, len(ph.samples))
	for _, s := range ph.samples {
		lat = append(lat, millis(s.lat))
	}
	// Exact answers per window, by the time each answer was read.
	var rates, cpus []float64
	for k := 0; (k+1)*windowTicks < len(ph.ticks); k++ {
		a, b := ph.ticks[k*windowTicks], ph.ticks[(k+1)*windowTicks]
		exactN := 0
		for i, s := range ph.samples {
			if s.done >= a.at && s.done < b.at {
				exactN += ev.outcomes[i].exact()
			}
		}
		rates = append(rates, float64(exactN)/(b.at-a.at).Seconds())
		cpus = append(cpus, share(millis(b.cpu-a.cpu), float64(exactN)))
	}
	if len(rates) < 3 {
		// Too short a phase for windows: whole-phase figures.
		rates = []float64{float64(ev.exactUnits) / ph.wall.Seconds()}
		cpus = []float64{share(millis(cpu), float64(ev.exactUnits))}
	}
	m["exact_per_s"] = metric{quantile(rates, 0.5), "1/s"}
	m["latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	m["latency_p99_ms"] = metric{quantile(lat, tailQuantile(len(lat))), "ms"}
	m["exact_share"] = metric{share(float64(ev.exactUnits), float64(ev.answered)), "share"}
	m["cpu_ms_per_answer"] = metric{quantile(cpus, 0.5), "ms"}
	m["peak_rss_mb"] = metric{peakRSS, "MB"}
	m["setup_s"] = metric{setup, "s"}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
