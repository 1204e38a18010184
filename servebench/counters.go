package main

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// counters is a flattened counter reading: "name{k=v,...}" to value,
// summed over the replicas (the replica label itself is dropped).
type counters map[string]float64

// snapshot is the fleet's counters at one moment.
type snapshot struct {
	replicas counters // the three replicas' registries, summed
	router   counters
}

func readCounters(tb *testbed) snapshot {
	s := snapshot{replicas: counters{}, router: counters{}}
	for _, reg := range tb.regs {
		s.replicas.add(reg)
	}
	s.router.add(tb.router.Registry())
	return s
}

func (c counters) add(reg *obs.Registry) {
	for _, se := range reg.Snapshot() {
		if se.Kind != obs.KindCounter {
			continue
		}
		var labels []string
		for i := 0; i+1 < len(se.Labels); i += 2 {
			if se.Labels[i] != "replica" {
				labels = append(labels, se.Labels[i]+"="+se.Labels[i+1])
			}
		}
		c[se.Name+"{"+strings.Join(labels, ",")+"}"] += float64(se.Value)
	}
}

// delta sums after-before over every series of family name whose labels
// contain each of the given "k=v" pairs.
func delta(before, after counters, name string, match ...string) float64 {
	total := 0.0
	for key, v := range after {
		if !strings.HasPrefix(key, name+"{") || !hasAll(key, match) {
			continue
		}
		total += v - before[key]
	}
	return total
}

func hasAll(key string, match []string) bool {
	labels := strings.Split(strings.TrimSuffix(key[strings.IndexByte(key, '{')+1:], "}"), ",")
	for _, m := range match {
		found := false
		for _, l := range labels {
			if l == m || (strings.HasSuffix(m, "*") && strings.HasPrefix(l, strings.TrimSuffix(m, "*"))) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// degradeLevels are the labels of obs.MetricDegraded.
var degradeLevels = []string{"bounded", "stale-cache", "shed", "exact-only"}

// counterMetrics reads the serving layer's own counters over the timed
// phase.
func counterMetrics(m map[string]metric, before, after snapshot, ev *evaluation) {
	b, a := before.replicas, after.replicas
	hits := delta(b, a, obs.MetricCacheEvents, "event=hit") + delta(b, a, obs.MetricCacheEvents, "event=stale-hit")
	misses := delta(b, a, obs.MetricCacheEvents, "event=miss")
	dedup := delta(b, a, obs.MetricCacheEvents, "event=dedup")
	m["serve.cache_hit_share"] = metric{share(hits, hits+misses), "share"}
	m["serve.dedup_share"] = metric{share(dedup, hits+misses), "share"}
	all := 0.0
	for _, lv := range degradeLevels {
		n := delta(b, a, obs.MetricDegraded, "level="+lv)
		all += n
		m["serve.degraded_share."+lv] = metric{share(n, float64(ev.units)), "share"}
	}
	m["serve.degraded_share"] = metric{share(all, float64(ev.units)), "share"}
	m["serve.refused"] = metric{delta(b, a, obs.MetricRequests, "outcome=refused*") +
		delta(b, a, obs.MetricSADFRequests, "outcome=refused*"), "count"}
}

// cacheHitShare is the replicas' measured cache-hit share over the timed
// phase.
func cacheHitShare(before, after snapshot) float64 {
	b, a := before.replicas, after.replicas
	hits := delta(b, a, obs.MetricCacheEvents, "event=hit") + delta(b, a, obs.MetricCacheEvents, "event=stale-hit")
	return share(hits, hits+delta(b, a, obs.MetricCacheEvents, "event=miss"))
}

// fleetMetrics reads the router's counters and sets the client's
// latency against the winning replica's handler time.
func fleetMetrics(m map[string]metric, tb *testbed, ph phase, before, after snapshot) {
	b, a := before.router, after.router
	requests, batches := 0.0, 0.0
	var overhead []float64
	for _, s := range ph.samples {
		requests++
		if s.path == pathBatch {
			batches++
		}
		if !s.traced || s.err != nil {
			continue
		}
		if h, ok := handlerTimeOf(tb.clock, s); ok {
			overhead = append(overhead, micros(s.lat-h))
		}
	}
	m["fleet.attempts_per_request"] = metric{share(delta(b, a, obs.MetricFleetAttempts), requests), "count"}
	m["fleet.hedge_share"] = metric{share(delta(b, a, obs.MetricFleetHedgeWins)+delta(b, a, obs.MetricFleetHedgeLosses), requests), "share"}
	m["fleet.batch_fanout"] = metric{share(delta(b, a, obs.MetricBatchFanout), batches), "count"}
	m["fleet.redispatched_items"] = metric{delta(b, a, obs.MetricBatchRedispatchedItems), "count"}
	putTiming(m, "fleet.overhead_us", overhead)

	var http []float64
	for _, d := range tb.clock.durations() {
		http = append(http, micros(d))
	}
	putTiming(m, "serve.http_us", http)
}

// handlerTimeOf finds the handler time behind a traced sample: the
// winning replica's for a relayed request, the slowest sub-batch's for a
// batch. Only handler runs inside the request's own send-to-read window
// count, since single-warm repeats each body many times.
func handlerTimeOf(c *handlerClock, s sample) (time.Duration, bool) {
	var worst time.Duration
	found := false
	end := s.sent.Add(s.lat)
	for _, key := range s.keys {
		for _, h := range c.lookup(key) {
			if h.start.Before(s.sent) || h.start.Add(h.d).After(end) {
				continue
			}
			if s.path != pathBatch && h.replica != s.replica {
				continue
			}
			if h.d > worst {
				worst = h.d
			}
			found = true
		}
	}
	return worst, found
}

// tracedMetrics compares the traced slices of the phase with the
// untraced ones and reports the failure share.
func tracedMetrics(m map[string]metric, ev *evaluation, ph phase) {
	traced := share(float64(ev.exactTraced), ph.tracedWall.Seconds())
	untraced := share(float64(ev.exactUntraced), ph.untracedWall.Seconds())
	m["trace.overhead_share"] = metric{share(traced, untraced), "share"}
	m["failed_share"] = metric{share(float64(ev.failedUnits), float64(ev.units)), "share"}
}

// putTiming stores a median and its p90 under name and name.p90.
func putTiming(m map[string]metric, name string, xs []float64) {
	m[name] = metric{quantile(xs, 0.5), "us"}
	m[name+".p90"] = metric{quantile(xs, 0.9), "us"}
}
