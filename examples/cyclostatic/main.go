// Cyclostatic: extends the paper's reductions beyond plain SDF to
// cyclo-static dataflow (CSDF, cited by the paper's buffer-sizing
// applications [18, 19]). A two-phase video scaler is analysed with the
// same symbolic max-plus machinery — the iteration matrix, its
// eigenvalue, and the Figure-4 HSDF construction all carry over — and the
// result is cross-checked against discrete-event simulation.
//
// Run with: go run ./examples/cyclostatic
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/csdf"
	"repro/internal/mcm"
)

func main() {
	// A camera front end: the sensor alternates a short luma phase and a
	// long chroma phase; the scaler consumes a full macroblock (2 tokens)
	// per firing; the encoder paces everything through a credit loop.
	g := csdf.NewGraph("camera")
	sensor := g.MustAddActor("Sensor", []int64{2, 6})
	scaler := g.MustAddActor("Scaler", []int64{5})
	enc := g.MustAddActor("Encoder", []int64{9})
	g.MustAddChannel(sensor, scaler, []int{1, 1}, []int{2}, 0)
	g.MustAddChannel(scaler, enc, []int{1}, []int{1}, 0)
	g.MustAddChannel(enc, sensor, []int{2}, []int{1, 1}, 4) // credits
	g.MustAddChannel(sensor, sensor, []int{1, 1}, []int{1, 1}, 1)
	g.MustAddChannel(enc, enc, []int{1}, []int{1}, 1)

	q, err := g.RepetitionVector()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("repetition vector (phase cycles included):")
	for i, v := range q {
		fmt.Printf("  %-8s fires %d time(s) per iteration\n", g.Actor(csdf.ActorID(i)).Name, v)
	}

	period, unbounded, err := csdf.Throughput(g)
	if err != nil {
		log.Fatal(err)
	}
	if unbounded {
		log.Fatal("unexpected unbounded throughput")
	}
	fmt.Printf("analytical iteration period: %v\n", period)

	// Cross-check against simulation. The steady state of this graph is
	// cyclic over two iterations (9 then 13 time units, averaging 11), so
	// measure over an even window.
	const iters = 50
	starts, _, err := csdf.Simulate(g, iters)
	if err != nil {
		log.Fatal(err)
	}
	k := int64(24)
	last := int64(len(starts[0])) - 1
	delta := starts[0][last] - starts[0][last-q[0]*k]
	fmt.Printf("simulated period over %d iterations: %d/%d = %v per iteration\n",
		k, delta, k, float64(delta)/float64(k))

	// The paper's novel conversion applies verbatim: CSDF -> HSDF.
	h, stats, err := csdf.ConvertToHSDF(g)
	if err != nil {
		log.Fatal(err)
	}
	n := g.TotalInitialTokens()
	fmt.Printf("novel HSDF conversion: %d actors for N = %d tokens (bound %d)\n",
		stats.Actors(), n, n*(n+2))
	res, err := mcm.MaxCycleRatio(context.Background(), h)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HSDF maximum cycle mean: %v", res.CycleMean)
	if res.CycleMean.Equal(period) {
		fmt.Println("  (= the CSDF period: the conversion preserves throughput)")
	} else {
		fmt.Println("  MISMATCH")
	}
}
