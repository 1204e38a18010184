package lint

import (
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/passes"
	"repro/internal/sdf"
)

// BenchmarkPrecheck times the cheap passes every served graph meets
// before the reduction fixpoint, each from a fresh fact table as the
// serving layer builds one per request, on the 128-actor fusible ring
// and the 96-actor ring with a dead tail. It fails on any precheck
// error.
func BenchmarkPrecheck(b *testing.B) {
	for _, g := range []*sdf.Graph{benchmarks.FusibleRing(128), benchmarks.RingWithDeadTail(96, 6)} {
		b.Run(g.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := PrecheckWith(passes.NewFacts(g)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
