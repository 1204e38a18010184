package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// errNoReplicas marks a request that found no alive replica to try.
var errNoReplicas = errors.New("fleet: no alive replicas")

// attemptOutcome is one proxied exchange's result. Exactly one of err
// and status is meaningful: err covers transport-level failures (the
// replica may be dead), status+body a completed HTTP exchange (the
// replica is alive, whatever it answered).
type attemptOutcome struct {
	m      *member
	hedged bool
	status int
	header http.Header
	body   []byte
	err    error
}

// ok reports a proxied success: the replica produced an analysis
// answer.
func (o attemptOutcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// retryable reports whether another replica might answer where this one
// did not: transport failures (connect refused, reset, per-attempt
// timeout), refusals (429) and 5xx server states. Deterministic request
// properties — bad request, precondition, budget — fail identically
// everywhere and are relayed as-is.
func (o attemptOutcome) retryable() bool {
	if o.err != nil {
		return true
	}
	return o.status == http.StatusTooManyRequests || o.status >= 500
}

// retryAfter extracts the replica's Retry-After hint, or 0.
func (o attemptOutcome) retryAfter() time.Duration {
	if o.header == nil {
		return 0
	}
	return parseRetryAfter(o.header.Get("Retry-After"), time.Now())
}

// parseRetryAfter interprets a Retry-After header value per RFC 9110
// §10.2.3: either delta-seconds or an HTTP-date (any of the three
// formats http.ParseTime accepts). Unparseable values, non-positive
// deltas and dates already past all yield 0 — an absent hint, so the
// exponential backoff schedule paces the retry instead.
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	if d := t.Sub(now); d > 0 {
		return d
	}
	return 0
}

// outcomeLabel classifies an attempt for the per-replica counter.
func outcomeLabel(o attemptOutcome) string {
	switch {
	case o.err != nil && errors.Is(o.err, context.Canceled):
		return "canceled"
	case o.ok():
		return "ok"
	case o.retryable():
		return "retryable"
	default:
		return "fatal"
	}
}

// routeOn drives one request across the fleet: primary attempt on the
// key's ring owner at path, a hedged attempt after hedgeDelay, and
// backoff-paced failover through the remaining alive replicas. The
// first good answer wins and every other in-flight attempt is cancelled
// through its context. The returned outcome is the winner's — or, after
// exhaustion, the most recent failure's. Batch sub-dispatch reuses the
// whole failover machine with its own straggler-hedge pacing. The extra
// return value counts attempts launched beyond the primary (hedges plus
// failover retries) — the batch layer turns it into its
// re-dispatched-items counter.
func (r *Router) routeOn(ctx context.Context, path, key string, hedgeDelay time.Duration, body []byte) (attemptOutcome, int, error) {
	order := r.aliveOrder(key)
	if len(order) == 0 {
		return attemptOutcome{}, 0, errNoReplicas
	}

	deadline, hasDeadline := ctx.Deadline()
	results := make(chan attemptOutcome, len(order))
	cancels := make([]context.CancelFunc, 0, len(order))
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	// perAttempt carves the remaining budget evenly across the replicas
	// not yet tried, floored so late attempts get a usable slice. The
	// division is what keeps one hung replica from spending the whole
	// deadline: attempt k can block at most remaining/(n-k) before its
	// context expires and failover moves on.
	perAttempt := func(tried int) time.Duration {
		if !hasDeadline {
			return 0
		}
		remaining := time.Until(deadline)
		left := len(order) - tried
		if left < 1 {
			left = 1
		}
		d := remaining / time.Duration(left)
		if d < r.opts.AttemptFloor {
			d = r.opts.AttemptFloor
		}
		if d > remaining {
			d = remaining
		}
		return d
	}

	next := 0
	inflight := 0
	launch := func(hedged bool) {
		m := order[next]
		actx := ctx
		var cancel context.CancelFunc
		if d := perAttempt(next); d > 0 {
			actx, cancel = context.WithTimeout(ctx, d)
		} else {
			actx, cancel = context.WithCancel(ctx)
		}
		cancels = append(cancels, cancel)
		next++
		inflight++
		go func() {
			results <- r.attempt(actx, path, m, hedged, body)
		}()
	}
	launch(false)

	// The hedge arms once, for the second attempt. Later failover
	// attempts are failure-driven, not latency-driven: hedging them too
	// would let one slow request fan out across the whole fleet. A zero
	// delay launches it right away: a zero timer could lose the select
	// below to the primary's answer and leave the request unhedged.
	var hedgeCh <-chan time.Time
	hedgeLaunched := false
	switch {
	case hedgeDelay < 0 || next >= len(order):
	case hedgeDelay == 0:
		hedgeLaunched = true
		launch(true)
	default:
		ht := time.NewTimer(hedgeDelay)
		defer ht.Stop()
		hedgeCh = ht.C
	}

	var backoffCh <-chan time.Time
	var backoffTimer *time.Timer
	defer func() {
		if backoffTimer != nil {
			backoffTimer.Stop()
		}
	}()
	retries := 0
	var last attemptOutcome

	for {
		select {
		case out := <-results:
			inflight--
			r.reg.Counter(obs.MetricFleetAttempts, "replica", out.m.addr, "outcome", outcomeLabel(out)).Inc()
			if out.err != nil {
				// Transport-level failure: evidence toward ejection.
				// (A response, any response, is evidence of life and was
				// already recorded by attempt.)
				if !errors.Is(out.err, context.Canceled) {
					r.noteTransportFailure(out.m)
				}
			}
			if out.ok() {
				r.settleHedge(out, hedgeLaunched)
				return out, next - 1, nil
			}
			if !out.retryable() {
				// Deterministic failure: every replica would answer the
				// same, so relay it now and cancel the stragglers.
				return out, next - 1, nil
			}
			last = out
			switch {
			case next < len(order) && backoffCh == nil:
				// Pace the failover; honour the replica's own hint when
				// it is longer than the exponential schedule.
				d := r.opts.Backoff.Delay(retries)
				if ra := out.retryAfter(); ra > d {
					d = ra
				}
				retries++
				backoffTimer = time.NewTimer(d)
				backoffCh = backoffTimer.C
			case next >= len(order) && inflight == 0 && backoffCh == nil:
				return last, next - 1, nil // exhausted: relay the most recent failure
			}
		case <-backoffCh:
			backoffCh = nil
			if next < len(order) {
				r.reg.Counter(obs.MetricFleetRetries, "replica", order[next].addr).Inc()
				launch(false)
			} else if inflight == 0 {
				return last, next - 1, nil
			}
		case <-hedgeCh:
			hedgeCh = nil
			// Hedge only while the primary is still the lone runner: if
			// failover already launched a second attempt there is nothing
			// left to pre-empt.
			if inflight == 1 && next < len(order) && backoffCh == nil {
				hedgeLaunched = true
				launch(true)
			}
		case <-ctx.Done():
			return attemptOutcome{err: ctx.Err()}, next - 1, nil
		}
	}
}

// settleHedge records the race verdict once a winner is known.
func (r *Router) settleHedge(winner attemptOutcome, hedgeLaunched bool) {
	if !hedgeLaunched {
		return
	}
	if winner.hedged {
		r.reg.Counter(obs.MetricFleetHedgeWins, "replica", winner.m.addr).Inc()
	} else {
		r.reg.Counter(obs.MetricFleetHedgeLosses, "replica", winner.m.addr).Inc()
	}
}

// attempt performs one proxied POST exchange against the given replica
// path.
func (r *Router) attempt(ctx context.Context, path string, m *member, hedged bool, body []byte) attemptOutcome {
	out := attemptOutcome{m: m, hedged: hedged}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		m.addr+path, bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		// Normalise context expiry so outcomeLabel and the leak-free
		// cancel path can classify with errors.Is.
		if ctx.Err() != nil {
			err = fmt.Errorf("fleet: attempt on %s: %w", m.addr, ctx.Err())
		}
		out.err = err
		return out
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, serve.MaxResponseBytes+1))
	if err != nil {
		out.err = fmt.Errorf("fleet: reading %s response: %w", m.addr, err)
		return out
	}
	// A completed exchange proves the replica is alive regardless of
	// status; only transport failures count toward ejection.
	m.touchAlive()
	out.status = resp.StatusCode
	out.header = resp.Header
	out.body = data
	if len(data) > serve.MaxResponseBytes {
		// Relaying a prefix would hand the client a 200 that does not
		// parse. The size is a verdict on the request — every replica
		// answers the same — so it is relayed as a deterministic error.
		const kind = "too-large"
		out.status = serve.StatusOf(kind)
		out.header = http.Header{"Content-Type": {"application/json"}}
		// Two strings always marshal.
		out.body, _ = json.Marshal(serve.ErrorPayload{Kind: kind, Error: fmt.Sprintf(
			"fleet: the answer of %s exceeds the %d-byte response cap", m.addr, serve.MaxResponseBytes)})
	}
	return out
}
