package passes

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/sdf"
)

func ringGraph(n int) *sdf.Graph {
	g := sdf.NewGraph("ring")
	ids := make([]sdf.ActorID, n)
	for i := range ids {
		ids[i] = g.MustAddActor(fmt.Sprintf("a%d", i), int64(i%7)+1)
	}
	for i := 0; i < n-1; i++ {
		g.MustAddChannel(ids[i], ids[i+1], 1, 1, 0)
	}
	g.MustAddChannel(ids[n-1], ids[0], 1, 1, 2)
	return g
}

func BenchmarkReduceRing512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := ringGraph(512)
		b.StartTimer()
		red, err := Reduce(context.Background(), g, Options{})
		b.StopTimer()
		if err != nil || len(red.Steps) != 1 {
			b.Fatalf("steps=%d err=%v", len(red.Steps), err)
		}
	}
}
