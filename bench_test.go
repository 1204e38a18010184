package sdfreduce

// Benchmark harness regenerating the paper's experiments:
//
//   - BenchmarkTable1* measure both HSDF conversions on every Table-1 /
//     Figure-6 application graph and report the resulting actor counts as
//     metrics (the table's rows; cmd/sdfbench prints them as text).
//   - BenchmarkFigure1* measure the §4.1 abstraction pipeline and the
//     full-graph analysis it replaces.
//   - BenchmarkFigure5* measure the Figure-5 prefetch model end to end.
//   - BenchmarkThroughputEngine* compare the three throughput engines.
//   - BenchmarkAblation* cover the design choices called out in
//     DESIGN.md: mux/demux elision, redundant-channel pruning, and
//     eigenvalue via Karp versus state-space power iteration.

import (
	"fmt"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/gen"
)

func BenchmarkTable1Traditional(b *testing.B) {
	for _, c := range benchmarks.All() {
		b.Run(slug(c.Name), func(b *testing.B) {
			g := c.Graph()
			var actors int
			for i := 0; i < b.N; i++ {
				_, stats, err := ConvertTraditional(g)
				if err != nil {
					b.Fatal(err)
				}
				actors = stats.Actors
			}
			b.ReportMetric(float64(actors), "actors")
			b.ReportMetric(float64(c.PaperTraditional), "paper-actors")
		})
	}
}

func BenchmarkTable1Symbolic(b *testing.B) {
	for _, c := range benchmarks.All() {
		b.Run(slug(c.Name), func(b *testing.B) {
			g := c.Graph()
			var actors int
			for i := 0; i < b.N; i++ {
				_, _, stats, err := ConvertSymbolic(g)
				if err != nil {
					b.Fatal(err)
				}
				actors = stats.Actors()
			}
			b.ReportMetric(float64(actors), "actors")
			b.ReportMetric(float64(c.PaperNew), "paper-actors")
		})
	}
}

func BenchmarkFigure1FullAnalysis(b *testing.B) {
	for _, n := range []int{6, 24, 96} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			g, err := Figure1(n)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := ComputeThroughput(g, MethodMatrix); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure1Abstraction(b *testing.B) {
	for _, n := range []int{6, 24, 96} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			g, err := Figure1(n)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				ab, err := InferAbstraction(g)
				if err != nil {
					b.Fatal(err)
				}
				abstract, res, err := Abstract(g, ab)
				if err != nil {
					b.Fatal(err)
				}
				r, err := MaxCycleMean(abstract)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := AbstractionThroughputBound(r.CycleMean, res.N); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure5PrefetchFull(b *testing.B) {
	g, err := Prefetch(1584, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeThroughput(g, MethodMatrix); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5PrefetchAbstract(b *testing.B) {
	g, err := Prefetch(1584, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ab, err := InferAbstraction(g)
		if err != nil {
			b.Fatal(err)
		}
		abstract, res, err := Abstract(g, ab)
		if err != nil {
			b.Fatal(err)
		}
		r, err := MaxCycleMean(abstract)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := AbstractionThroughputBound(r.CycleMean, res.N); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThroughputEngine(b *testing.B) {
	// The engines on the modem: multirate, strongly connected, so all
	// three (including the state-space engine, whose recurrence detection
	// needs an irreducible iteration matrix) apply.
	for _, m := range []Method{MethodMatrix, MethodStateSpace, MethodHSDF} {
		b.Run(m.String(), func(b *testing.B) {
			g := benchmarks.Modem()
			for i := 0; i < b.N; i++ {
				if _, err := ComputeThroughput(g, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: the Figure-4 construction with and without mux/demux elision.
func BenchmarkAblationMuxDemuxElision(b *testing.B) {
	for _, elide := range []bool{true, false} {
		name := "elided"
		if !elide {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			// mp3 playback has a sparse iteration matrix, so the elision
			// of single-entry rows and columns is visible in the count.
			g := benchmarks.MP3Playback()
			r, err := SymbolicIteration(g)
			if err != nil {
				b.Fatal(err)
			}
			var actors int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := core.BuildHSDF("m", r, core.BuildOptions{ElideMuxDemux: elide})
				if err != nil {
					b.Fatal(err)
				}
				actors = stats.Actors()
			}
			b.ReportMetric(float64(actors), "actors")
		})
	}
}

// Ablation: abstraction with and without §4.2 redundant-channel pruning.
func BenchmarkAblationPruning(b *testing.B) {
	// Figure 2's per-actor self-loops abstract to a redundant three-token
	// self-channel next to the one-token chain image (§4.2's example).
	g := Figure2()
	ab, err := InferAbstraction(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pruned", func(b *testing.B) {
		var channels int
		for i := 0; i < b.N; i++ {
			abstract, _, err := Abstract(g, ab)
			if err != nil {
				b.Fatal(err)
			}
			channels = abstract.NumChannels()
		}
		b.ReportMetric(float64(channels), "channels")
	})
	b.Run("unpruned", func(b *testing.B) {
		var channels int
		for i := 0; i < b.N; i++ {
			abstract, _, err := core.AbstractUnpruned(g, ab)
			if err != nil {
				b.Fatal(err)
			}
			channels = abstract.NumChannels()
		}
		b.ReportMetric(float64(channels), "channels")
	})
}

// Ablation: the max-plus eigenvalue (Howard's maximum cycle mean of the
// precedence graph) versus state-space power iteration on the same
// iteration matrix.
func BenchmarkAblationEigenvalue(b *testing.B) {
	g := benchmarks.Modem()
	r, err := SymbolicIteration(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("howard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := r.Matrix.Eigenvalue(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("power", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := r.Matrix.PowerIteration(1 << 22); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation / scaling: symbolic conversion cost versus the number of
// initial tokens (the N² size bound at work).
func BenchmarkSymbolicConversionScaling(b *testing.B) {
	for _, blocks := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("prefetch%d", blocks), func(b *testing.B) {
			g, err := Prefetch(blocks, 3)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, _, _, err := ConvertSymbolic(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func slug(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ', r == '.':
			// skip
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// The §3 observation measured: the traditional conversion grows
// exponentially with the chain length k (iteration length 2^(k+1)−1)
// while the novel conversion's size stays linear in the k+1 tokens.
func BenchmarkExponentialGap(b *testing.B) {
	for _, k := range []int{4, 8, 12, 16} {
		g, err := gen.ExponentialChain(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("traditional/k%d", k), func(b *testing.B) {
			var actors int
			for i := 0; i < b.N; i++ {
				_, stats, err := ConvertTraditional(g)
				if err != nil {
					b.Fatal(err)
				}
				actors = stats.Actors
			}
			b.ReportMetric(float64(actors), "actors")
		})
		b.Run(fmt.Sprintf("symbolic/k%d", k), func(b *testing.B) {
			var actors int
			for i := 0; i < b.N; i++ {
				_, _, stats, err := ConvertSymbolic(g)
				if err != nil {
					b.Fatal(err)
				}
				actors = stats.Actors()
			}
			b.ReportMetric(float64(actors), "actors")
		})
	}
}
