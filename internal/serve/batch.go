package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
)

// Batch serving: POST /v1/batch analyses many graphs under one shared
// deadline with partial-failure semantics as the contract. Every item
// gets its own entry in the result array — independently ok, bounded,
// degraded or item-error, each success with its own lifted certificate —
// so one hostile or explosive graph in a 100-item batch yields one error
// entry, never a batch-wide 5xx. The planner prices every item with the
// same reduced price admission uses, runs cheap items
// first, and carves the shared deadline into per-item budgets so a blown
// deadline strands the fewest answers.

// maxBatchItems bounds the item count of one batch: admission control
// prices work, not list lengths, so the count needs its own cap.
const maxBatchItems = 1024

// batchItemFloor is the minimum carved per-item budget: below this the
// deadline is effectively spent and the item reports it honestly instead
// of thrashing in a microsecond window.
const batchItemFloor = 20 * time.Millisecond

// BatchRequestPayload is the JSON wire form of POST /v1/batch: a list of
// ordinary request payloads plus one shared deadline for the whole
// batch.
type BatchRequestPayload struct {
	// Items are the per-graph requests, each in the exact wire form of
	// POST /v1/throughput.
	Items []RequestPayload `json:"items"`
	// DeadlineMS is the shared wall-clock budget for the whole batch in
	// milliseconds; 0 uses the server default, and the server clamps it
	// to its configured maximum.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// BatchItem is one decoded batch entry. Exactly one of Req and Err is
// set: a structurally invalid item decodes to its own error entry
// instead of poisoning the batch.
type BatchItem struct {
	// Payload is the item's wire form, retained verbatim so the fleet
	// router can re-marshal sub-batches without a lossy round trip.
	Payload RequestPayload
	// Req is the validated request; nil when Err is set.
	Req *Request
	// Err is the item's decode failure (wraps ErrBadRequest); the item
	// never executes and surfaces as an item-error entry.
	Err error
}

// BatchRequest is a decoded batch.
type BatchRequest struct {
	Items    []BatchItem
	Deadline time.Duration
}

// BatchItemResult is one entry of the per-item result array. Index is
// the item's position in the request — results always come back in
// request order regardless of the execution schedule.
type BatchItemResult struct {
	Index  int            `json:"index"`
	Graph  string         `json:"graph,omitempty"`
	Status string         `json:"status"` // ok | bounded | degraded | item-error
	Result *ResultPayload `json:"result,omitempty"`
	Error  *ErrorPayload  `json:"error,omitempty"`
}

// BatchResultPayload is the JSON wire form of a processed batch. A
// processed batch is always HTTP 200: item failures live in Items, and
// Kind says whether any occurred.
type BatchResultPayload struct {
	// Kind classifies the batch: "complete" (every item answered) or
	// "partial" (at least one item-error entry). See BatchKindOf.
	Kind string `json:"kind"`
	// OK counts items that answered (ok, bounded or degraded); Errors
	// counts item-error entries. OK+Errors == len(Items) always.
	OK     int               `json:"ok"`
	Errors int               `json:"errors"`
	Items  []BatchItemResult `json:"items"`
}

// DecodeBatchRequest parses the wire form of one batch. Batch-level
// failures (malformed JSON, empty or oversized batch) wrap
// ErrBadRequest/ErrTooLarge; per-item validation failures land in the
// item's Err and become item-error entries, never a batch-level refusal.
func DecodeBatchRequest(data []byte) (*BatchRequest, error) {
	bad := func(format string, args ...any) (*BatchRequest, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
	}
	if len(data) > MaxBatchRequestBytes {
		return nil, fmt.Errorf("%w: batch of %d bytes exceeds the %d-byte limit",
			ErrTooLarge, len(data), MaxBatchRequestBytes)
	}
	var p BatchRequestPayload
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return bad("invalid JSON: %v", err)
	}
	if dec.More() {
		return bad("trailing data after the batch object")
	}
	if len(p.Items) == 0 {
		return bad("empty batch: items must name at least one graph")
	}
	if len(p.Items) > maxBatchItems {
		return bad("batch of %d items exceeds the %d-item limit", len(p.Items), maxBatchItems)
	}
	if p.DeadlineMS < 0 {
		return bad("negative deadline_ms %d", p.DeadlineMS)
	}
	breq := &BatchRequest{
		Items:    make([]BatchItem, len(p.Items)),
		Deadline: time.Duration(p.DeadlineMS) * time.Millisecond,
	}
	for i, ip := range p.Items {
		req, err := ip.decode()
		breq.Items[i] = BatchItem{Payload: ip, Req: req, Err: err}
	}
	return breq, nil
}

// ItemStatusOf classifies one batch item's outcome into the stable wire
// string of BatchItemResult.Status. The literals below are harvested by
// the sdfvet kindmap check: every status must have an explicit case in
// sdftool's batch exit-code table.
func ItemStatusOf(res *ResultPayload, err error) string {
	switch {
	case err != nil || res == nil:
		return "item-error"
	case res.Degradation == "bounded":
		return "bounded"
	case res.Degradation != "":
		return "degraded"
	default:
		return "ok"
	}
}

// BatchKindOf classifies a finished batch from its item entries. Like
// ItemStatusOf, the literals feed the sdfvet kindmap check.
func BatchKindOf(items []BatchItemResult) string {
	for _, it := range items {
		if it.Error != nil {
			return "partial"
		}
	}
	return "complete"
}

// plannedItem is one batch item after the planning pass: a prepared
// graphJob — or an item already failed with a terminal error that skips
// execution entirely.
type plannedItem struct {
	index int
	err   error
	graphJob
}

// AnalyzeBatch admits, plans and executes one batch. The returned error
// is batch-level only (ErrDraining when admission has stopped); every
// per-item failure is an entry in the result array. ctx bounds how long
// this caller waits, exactly as in Analyze.
func (s *Server) AnalyzeBatch(ctx context.Context, breq *BatchRequest) (*BatchResultPayload, error) {
	start := s.reg.Now()
	res, err := s.analyzeBatch(ctx, breq)
	s.reg.Histogram(obs.MetricBatchSeconds).Observe(s.reg.Now().Sub(start))
	outcome := outcomeOf(err)
	if err == nil {
		outcome = res.Kind
	}
	s.reg.Counter(obs.MetricBatchRequests, "outcome", outcome).Inc()
	return res, err
}

func (s *Server) analyzeBatch(ctx context.Context, breq *BatchRequest) (*BatchResultPayload, error) {
	// One admission covers the whole batch: the drain gate refuses new
	// batches, and an accepted batch holds the server open until its
	// last item settles.
	if err := s.admit(); err != nil {
		return nil, err
	}
	defer s.finish()

	expiry := time.Now().Add(s.clampTimeout(breq.Deadline))
	bctx, cancel := context.WithDeadline(ctx, expiry)
	defer cancel()

	plan := s.planBatch(breq)

	// Cross-item dedup: items with identical canonical keys (same
	// graph, method and budget — Request.Key — plus the exact-only
	// gate) are analysed once. The first occurrence in plan order
	// leads; duplicates skip execution entirely and are filled from the
	// leader's entry after the batch settles. Fault-injected items
	// never dedup, mirroring dispatch: they are deliberately sick and
	// must neither adopt nor donate a healthy answer.
	leaderOf := make(map[*plannedItem]*plannedItem)
	seen := make(map[string]*plannedItem)
	for _, pi := range plan {
		if pi.err != nil || len(pi.req.Faults) > 0 {
			continue
		}
		key := pi.origKey
		if pi.req.ExactOnly {
			key += "|exact"
		}
		if lead, ok := seen[key]; ok {
			leaderOf[pi] = lead
		} else {
			seen[key] = pi
		}
	}

	results := make([]BatchItemResult, len(breq.Items))
	// Workers-sized launch gate: items start in plan order (cheap
	// first), and at most Workers batch items compete for the engine
	// slots at once, so a batch cannot monopolise the bounded queue
	// against single requests.
	gate := make(chan struct{}, s.opts.Workers)
	var wg sync.WaitGroup
	// The deadline is carved across the items that will actually run:
	// leaders only, never the duplicates they answer for.
	left := 0
	for _, pi := range plan {
		if pi.err == nil && leaderOf[pi] == nil {
			left++
		}
	}
	for _, pi := range plan {
		pi := pi
		if pi.err != nil {
			results[pi.index] = s.batchItemResult(pi, nil, pi.err)
			continue
		}
		if leaderOf[pi] != nil {
			continue
		}
		gate <- struct{}{}
		budget := carveBudget(time.Until(expiry), left, s.opts.Workers)
		left--
		if budget <= 0 {
			<-gate
			results[pi.index] = s.batchItemResult(pi, nil,
				fmt.Errorf("serve: batch deadline exhausted before the item started: %w", context.DeadlineExceeded))
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-gate }()
			results[pi.index] = s.runBatchItem(bctx, pi, budget)
		}()
	}
	wg.Wait()

	// Fan the leaders' answers out to their duplicates.
	for _, pi := range plan {
		lead := leaderOf[pi]
		if lead == nil {
			continue
		}
		results[pi.index] = s.dedupItemResult(pi, results[lead.index])
	}

	out := &BatchResultPayload{Items: results}
	for _, it := range results {
		if it.Error != nil {
			out.Errors++
		} else {
			out.OK++
		}
	}
	out.Kind = BatchKindOf(results)
	return out, nil
}

// planBatch prices and orders the batch: per item it runs the single
// request's prepare — injection gate, structural prechecks, reduction
// fixpoint, pricing — under panic isolation (a hostile graph fails its
// own entry, nothing else), then sorts by the reduced admission cost so
// the cheap items run first and a blown deadline strands the fewest
// answers.
func (s *Server) planBatch(breq *BatchRequest) []*plannedItem {
	plan := make([]*plannedItem, len(breq.Items))
	for i, it := range breq.Items {
		pi := &plannedItem{index: i, err: it.Err, graphJob: graphJob{req: it.Req}}
		plan[i] = pi
		if pi.err == nil {
			pi.err = guard.Protect("batch", "plan", func() error { return pi.prepare(s) })
		}
	}
	ordered := make([]*plannedItem, len(plan))
	copy(ordered, plan)
	sort.SliceStable(ordered, func(a, b int) bool {
		// Failed items carry no cost and sort first: recording an error
		// entry is free and must not wait behind real work.
		if (ordered[a].err == nil) != (ordered[b].err == nil) {
			return ordered[a].err != nil
		}
		return ordered[a].cost < ordered[b].cost
	})
	return ordered
}

// carveBudget splits the remaining shared deadline across the items
// still to launch, assuming the Workers-wide gate drains them in waves:
// each item gets remaining/ceil(left/workers), floored at batchItemFloor
// and capped at the remaining window. Cheap-first ordering makes the
// early waves finish under their slice and roll surplus time forward to
// the expensive tail.
func carveBudget(remaining time.Duration, left, workers int) time.Duration {
	if remaining <= 0 {
		return 0
	}
	if left < 1 {
		left = 1
	}
	if workers < 1 {
		workers = 1
	}
	waves := (left + workers - 1) / workers
	per := remaining / time.Duration(waves)
	if per < batchItemFloor {
		per = batchItemFloor
	}
	if per > remaining {
		per = remaining
	}
	return per
}

// runBatchItem executes one planned item under its carved budget via
// the same admitted step single requests take, with one extra layer of
// panic isolation so a bug anywhere in the item's pipeline becomes that
// item's error entry.
func (s *Server) runBatchItem(ctx context.Context, pi *plannedItem, budget time.Duration) BatchItemResult {
	job, req := pi.graphJob, *pi.req
	if req.Timeout <= 0 || req.Timeout > budget {
		req.Timeout = budget
	}
	job.req = &req
	level := s.ctrl.current()
	start := s.reg.Now()
	var res *ResultPayload
	err := guard.Protect("batch", "item", func() error {
		var ierr error
		res, ierr = serveAdmitted[*ResultPayload](ctx, s, &job, req.ExactOnly, level)
		return ierr
	})
	// Batch items feed the same pressure signal as single requests:
	// they hold the same worker slots.
	s.ctrl.observe(s.reg.Now().Sub(start))
	s.settle(err)
	return s.batchItemResult(pi, res, err)
}

// dedupItemResult fills one deduplicated item's entry from its
// leader's: the same answer (marked Deduped) or the same error, under
// the item's own index, counted both as a batch item and as a dedup
// hit.
func (s *Server) dedupItemResult(pi *plannedItem, lead BatchItemResult) BatchItemResult {
	out := lead
	out.Index = pi.index
	if out.Result != nil {
		res := *out.Result
		res.Deduped = true
		out.Result = &res
	}
	s.reg.Counter(obs.MetricBatchItems, "status", out.Status).Inc()
	s.reg.Counter(obs.MetricBatchDedupItems).Inc()
	return out
}

// batchItemResult renders one item outcome into its wire entry and
// counts it.
func (s *Server) batchItemResult(pi *plannedItem, res *ResultPayload, err error) BatchItemResult {
	st := ItemStatusOf(res, err)
	s.reg.Counter(obs.MetricBatchItems, "status", st).Inc()
	out := BatchItemResult{Index: pi.index, Status: st}
	if pi.req != nil {
		out.Graph = pi.req.Graph.Name()
	}
	if err != nil {
		out.Error = &ErrorPayload{Error: err.Error(), Kind: KindOf(err)}
		return out
	}
	out.Result = res
	return out
}
