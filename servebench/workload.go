package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/benchmarks"
	"repro/internal/gen"
	"repro/internal/sadf"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/serve"
)

// Endpoint paths of the served analysis surface.
const (
	pathThroughput = "/v1/throughput"
	pathBatch      = "/v1/batch"
	pathSADF       = "/v1/sadf"
)

const (
	// batchItems is the item count of every batch-cold request.
	batchItems = 32
	// warmPool is the number of distinct graphs single-warm cycles
	// through: one reducible group (see sizeClasses), about 53 per
	// replica, well under one replica's 256-entry LRU.
	warmPool = reducibleGroup / 4 * blockSize
	// batchDeadlineMS is the shared batch deadline sent with every
	// batch: the replicas' maximum, so a slow item is measured, not cut
	// off.
	batchDeadlineMS = 30000
	// blockSize is the length of one stratum of the single-graph stream:
	// each block holds eight paper graphs, four reducible graphs and
	// four random graphs, in a seeded order. Stratifying
	// keeps the mix of every run the same (half paper graphs, a quarter
	// each reducible and random) whatever the seed, so seeds move the
	// inputs, not the composition.
	blockSize = 16
	// Per-seed variant pools. Each request carries a graph or model
	// drawn from a finite seeded pool under a name unique in the stream,
	// so every request is a cache miss for the server while the oracle
	// computes each variant's reference once per seed.
	paperShifts    = 256 // execution-time shift patterns per paper graph
	randomVariants = 512 // random graphs per generator
	sadfVariants   = 256 // FSM-SADF models
	// sizeClasses is the number of size strata of the reducible
	// families; one group of five families at every size class spans
	// ten blocks, and the warm pool is exactly one group.
	sizeClasses    = 8
	reducibleGroup = 5 * sizeClasses
)

// stallCase is the Table-1 graph whose cold hedged race stalls: matrix
// answers mp3 playback in about 12ms, but the race then waits for the
// cancelled HSDF conversion (10601 actors) for 1.5-1.7s, and a few such
// stalls tip a replica's brownout controller (p99 target 1s). Whether a
// race stalls is a coin flip costing a client seconds, so a stream
// carrying it measures mostly how the coins fell (exact_per_s spread
// 0.3-0.6 of its median across seeds in 20s runs). The streams therefore
// draw the other seven graphs, and the traced replay measures the stall
// itself (analysis.stall_case_hedged_us).
const stallCase = "mp3 playback"

// input is one generated request: its wire body plus the decoded objects
// the oracle and the traced replay work on. Graphs has one entry per
// answer the request yields (one, or one per batch item); refs names the
// variant behind each answer.
type input struct {
	idx    int
	kind   string // paper, reducible, random, batch or sadf
	path   string
	body   []byte
	graphs []*sdf.Graph
	model  *sadf.Model
	refs   []string
	// itemKeys are the batch items' handler-clock keys (see itemKey).
	itemKeys []string
}

// name names answer k's graph or model.
func (in *input) name(k int) string {
	if in.model != nil {
		return in.model.Name
	}
	return in.graphs[k].Name()
}

// workload is a seeded request stream. input(i) is a pure function of
// the seed and i, so a traced run replays exactly the untraced run's
// inputs, and the oracle regenerates what the clients dropped.
type workload struct {
	name string
	seed int64
	// warm restricts the stream to a fixed pool of graphs that setup
	// sends once before the timed phase.
	warm bool
	pool []*input
	// sadf holds the model pool of sadf-cold with each model's
	// reference, computed once per seed.
	sadf []sadfVariant
}

type sadfVariant struct {
	model *sadf.Model
	ref   reference
}

var workloadNames = []string{"single-cold", "single-warm", "batch-cold", "sadf-cold"}

func newWorkload(ctx context.Context, name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed}
	switch name {
	case "single-cold", "batch-cold":
	case "single-warm":
		w.warm = true
		w.pool = make([]*input, warmPool)
		for i := range w.pool {
			w.pool[i] = w.single(i)
		}
	case "sadf-cold":
		if err := w.buildSADFPool(ctx); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// rng returns the generator of position i under salt; distinct salts
// keep the streams, the strata and the variant pools independent.
func (w *workload) rng(salt, i int) *rand.Rand {
	return rand.New(rand.NewSource(w.seed*1_000_003 + int64(salt)*7_919_999 + int64(i)))
}

// input returns stream position i.
func (w *workload) input(i int) *input {
	switch w.name {
	case "single-warm":
		// Every block of len(pool) positions visits each pool graph once.
		perm := w.rng(1, i/len(w.pool)).Perm(len(w.pool))
		in := *w.pool[perm[i%len(w.pool)]]
		in.idx = i
		return &in
	case "batch-cold":
		return w.batch(i)
	case "sadf-cold":
		return w.sadfInput(i)
	default:
		return w.single(i)
	}
}

// single builds one /v1/throughput request around graph i of the
// single-graph stream.
func (w *workload) single(i int) *input {
	kind, ref, g, p := w.graph(i, fmt.Sprintf("s%d", i))
	return &input{idx: i, kind: kind, path: pathThroughput, body: mustJSON(p),
		graphs: []*sdf.Graph{g}, refs: []string{ref}}
}

// batch builds one /v1/batch request of batchItems unique graphs: the
// next batchItems positions of the single-graph stream.
func (w *workload) batch(i int) *input {
	in := &input{idx: i, kind: "batch", path: pathBatch}
	p := serve.BatchRequestPayload{DeadlineMS: batchDeadlineMS}
	for k := 0; k < batchItems; k++ {
		_, ref, g, item := w.graph(i*batchItems+k, fmt.Sprintf("b%d.%d", i, k))
		p.Items = append(p.Items, item)
		in.itemKeys = append(in.itemKeys, itemKey(item))
		in.graphs = append(in.graphs, g)
		in.refs = append(in.refs, ref)
	}
	in.body = mustJSON(p)
	return in
}

// graph draws position i of the single-graph stream: a paper application
// graph under one of the seed's execution-time shift patterns, a
// reducible family of seeded size, or one of the seed's random
// consistent graphs, as the position's block dictates. It returns the
// kind, the variant key, the graph (named uniquely by tag) and its wire
// form.
func (w *workload) graph(i int, tag string) (kind, ref string, g *sdf.Graph, p serve.RequestPayload) {
	slot := w.rng(5, i/blockSize).Perm(blockSize)[i%blockSize]
	rng := w.rng(2, i)
	switch {
	case slot < 8:
		kind = "paper"
		var cases []benchmarks.Case
		for _, c := range benchmarks.All() {
			if c.Name != stallCase {
				cases = append(cases, c)
			}
		}
		// Slots 0..6 carry the seven graphs, slot 7 a second draw.
		c := slot
		if c >= len(cases) {
			c = rng.Intn(len(cases))
		}
		pattern := rng.Intn(paperShifts)
		ref = fmt.Sprintf("paper/%d/%d", c, pattern)
		g = cases[c].Graph()
		shifts := w.rng(9, c*paperShifts+pattern)
		for id, a := range g.Actors() {
			// A shift of 0..3 time units per actor keeps the graph's
			// structure (and its cost class) but changes its period.
			_ = g.SetExec(sdf.ActorID(id), a.Exec+shifts.Int63n(4))
		}
	case slot < 12:
		kind = "reducible"
		// Family and cost-setting size are stratified together: every
		// reducibleGroup consecutive reducible graphs hold each family
		// at each size class once, so a run, or the warm pool, never
		// leans towards one family or towards large instances. The size
		// is the class's midpoint: the fixpoint cost grows faster than
		// the size, and a random size within the top class alone moved
		// the warm pool's cost by a tenth between seeds.
		r := (i/blockSize)*4 + slot - 8
		cell := w.rng(6, r/reducibleGroup).Perm(reducibleGroup)[r%reducibleGroup]
		family, class := cell%5, cell/5
		pick := func(lo, hi int) int { // the size class's midpoint in [lo, hi]
			span := float64(hi - lo + 1)
			return lo + int(span*(float64(class)+0.5)/sizeClasses)
		}
		var size int
		switch family {
		case 0:
			size = pick(16, 128)
			g = benchmarks.FusibleRing(size)
		case 1:
			size = pick(3, 7)
			g = benchmarks.DeadPeriphery(size)
		case 2:
			scale, t1, t2 := pick(2, 32), 1+rng.Intn(6), 1+rng.Intn(6)
			size = scale*100 + t1*10 + t2
			g = benchmarks.GCDTokenCycle(scale, t1, t2)
		case 3:
			size = pick(8, 40)
			g = benchmarks.WideRedundant(size)
		default:
			n, depth := pick(16, 96), 2+rng.Intn(5)
			size = n*10 + depth
			g = benchmarks.RingWithDeadTail(n, depth)
		}
		ref = fmt.Sprintf("reducible/%d/%d", family, size)
	default:
		kind = "random"
		v := rng.Intn(randomVariants)
		var err error
		if slot < 14 {
			ref = fmt.Sprintf("random/%d", v)
			vr := w.rng(10, v)
			g, err = gen.RandomGraph(vr, gen.RandomOptions{
				Actors: 3 + vr.Intn(10), MaxRep: 1 + vr.Int63n(4), MaxExec: 10,
				Chords: vr.Intn(4), SelfLoop: vr.Intn(2) == 0,
			})
		} else {
			ref = fmt.Sprintf("regular/%d", v)
			vr := w.rng(13, v)
			g, err = gen.RandomRegularMultirate(vr, gen.RegularOptions{
				Groups: 2 + vr.Intn(3), Copies: 2 + vr.Intn(3), Links: 1 + vr.Intn(3), MaxExec: 10,
			}, 1+vr.Int63n(3))
		}
		if err != nil {
			// The generators only fail on option values outside the
			// ranges drawn above.
			panic(fmt.Sprintf("servebench: generator: %v", err))
		}
	}
	g.SetName(wireName(g.Name()) + "." + tag)
	return kind, ref, g, graphPayload(rng, g)
}

// graphPayload renders g for the wire, as the JSON graph object or the
// native text format (a seeded coin), so both parsers carry traffic.
func graphPayload(rng *rand.Rand, g *sdf.Graph) serve.RequestPayload {
	if rng.Intn(2) == 0 {
		return serve.RequestPayload{GraphText: sdfio.TextString(g)}
	}
	var b bytes.Buffer
	if err := sdfio.WriteJSON(&b, g); err != nil {
		panic(fmt.Sprintf("servebench: graph json: %v", err))
	}
	return serve.RequestPayload{Graph: json.RawMessage(bytes.TrimSpace(b.Bytes()))}
}

// sadfInput builds one /v1/sadf request: a model of the seed's pool
// under a name unique in the stream. Every block of sadfVariants
// positions sends each model once.
func (w *workload) sadfInput(i int) *input {
	v := w.rng(11, i/len(w.sadf)).Perm(len(w.sadf))[i%len(w.sadf)]
	m := *w.sadf[v].model
	m.Name = fmt.Sprintf("%s.m%d", m.Name, i)
	var p serve.SADFRequestPayload
	if w.rng(12, i).Intn(2) == 0 {
		p.ModelText = sdfio.SADFTextString(&m)
	} else {
		var b bytes.Buffer
		if err := sdfio.WriteSADFJSON(&b, &m); err != nil {
			panic(fmt.Sprintf("servebench: sadf json: %v", err))
		}
		p.Model = json.RawMessage(bytes.TrimSpace(b.Bytes()))
	}
	return &input{idx: i, kind: "sadf", path: pathSADF, body: mustJSON(p), model: &m,
		refs: []string{fmt.Sprintf("sadf/%d", v)}}
}

// buildSADFPool draws the seed's model pool and computes each model's
// reference. A model the analysis cannot answer (Howard's iteration has
// been seen not to converge on about one random model in five thousand)
// is replaced by the next draw: the workload measures answers, not a
// known failure mode.
func (w *workload) buildSADFPool(ctx context.Context) error {
	w.sadf = make([]sadfVariant, sadfVariants)
	for v := range w.sadf {
		for try := 0; ; try++ {
			if try == 16 {
				return fmt.Errorf("sadf variant %d: no analysable model in %d draws", v, try)
			}
			m := w.sadfModel(v, try)
			if ref, err := modelReference(ctx, m); err == nil {
				w.sadf[v] = sadfVariant{model: m, ref: ref}
				break
			}
		}
	}
	return nil
}

// sadfModel draws model v of the pool (try > 0 redraws it): a ring of
// actors with one token per channel, so ring tokens, under scenarios
// that differ in execution times, and a random strongly connected FSM
// over them with self-loops. Ring size and state count, which set the
// automaton's size (states × tokens, 8 to 1024 nodes) and so the cost,
// are stratified together: every 64 variants hold each of eight
// ring-size classes (4-7 … 32-35, capped at 32) at each of eight
// state-count classes (2-5 … 30-33, capped at 32) once.
func (w *workload) sadfModel(v, try int) *sadf.Model {
	cell := w.rng(7, v/64).Perm(64)[v%64]
	rng := w.rng(4, v+try*sadfVariants)
	ring := min(4+4*(cell%8)+rng.Intn(4), 32)
	states := min(2+4*(cell/8)+rng.Intn(4), 32)
	scenarios := min(2+rng.Intn(4), states)
	m := &sadf.Model{Name: fmt.Sprintf("ring%d-s%d-q%d", ring, scenarios, states)}
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
		// The first states cover every scenario once; the rest label at
		// random.
		scn := q
		if q >= scenarios {
			scn = rng.Intn(scenarios)
		}
		m.States = append(m.States, sadf.State{Name: fmt.Sprintf("q%d", q), Scenario: fmt.Sprintf("s%d", scn)})
	}
	seen := map[[2]int]bool{}
	addTrans := func(from, to int) {
		if !seen[[2]int{from, to}] {
			seen[[2]int{from, to}] = true
			m.Transitions = append(m.Transitions, sadf.Transition{From: fmt.Sprintf("q%d", from), To: fmt.Sprintf("q%d", to)})
		}
	}
	for q := 0; q < states; q++ {
		addTrans(q, (q+1)%states) // a cycle through every state keeps all reachable
		if rng.Intn(2) == 0 {
			addTrans(q, q)
		}
		for e := rng.Intn(3); e > 0; e-- {
			addTrans(q, rng.Intn(states))
		}
	}
	m.Initial = "q0"
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("servebench: sadf model: %v", err))
	}
	return m
}

// wireName maps a benchmark name onto the characters every wire format
// accepts in a graph name.
func wireName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '-'
	}, s)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("servebench: marshal: %v", err))
	}
	return b
}
