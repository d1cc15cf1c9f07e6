package graphsketch

// Benchmark harness: one BenchmarkE* target per experiment in DESIGN.md's
// index (the paper's figure/theorem-level claims), plus facade-level
// throughput micro-benchmarks. Macro benches execute the corresponding
// experiment from internal/experiments once per iteration and report the
// headline quantity via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates every one of those numbers.

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"graphsketch/internal/agm"
	"graphsketch/internal/baseline"
	"graphsketch/internal/experiments"
)

// reportLastColumn parses the last column of each row as float and reports
// the worst (max) value under the given metric name, when parseable.
func reportMax(b *testing.B, t experiments.Table, col int, metric string) {
	worst := 0.0
	found := false
	for _, row := range t.Rows {
		if col >= len(row) {
			continue
		}
		if v, err := strconv.ParseFloat(row[col], 64); err == nil {
			found = true
			if v > worst {
				worst = v
			}
		}
	}
	if found && !math.IsNaN(worst) {
		b.ReportMetric(worst, metric)
	}
}

func BenchmarkE1L0Sampler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E1L0Sampler()
		reportMax(b, t, 2, "min_success") // all success columns ~1.0
	}
}

func BenchmarkE2SparseRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E2SparseRecovery()
		reportMax(b, t, 3, "max_false_decode")
	}
}

func BenchmarkE3EdgeConnect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E3EdgeConnect()
	}
}

func BenchmarkE4MinCut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E4MinCut()
		reportMax(b, t, 4, "max_rel_err")
	}
}

func BenchmarkE5SimpleSparsify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E5SimpleSparsify()
		reportMax(b, t, 4, "max_community_err")
	}
}

func BenchmarkE6BetterSparsify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E6BetterSparsify()
		reportMax(b, t, 3, "max_space_ratio")
	}
}

func BenchmarkE7WeightedSparsify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E7WeightedSparsify()
		reportMax(b, t, 4, "max_cut_err")
	}
}

func BenchmarkE8Subgraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E8Subgraph()
		reportMax(b, t, 4, "max_add_err")
	}
}

func BenchmarkE8Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E8Baseline()
	}
}

func BenchmarkE9BaswanaSen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E9BaswanaSen()
		reportMax(b, t, 4, "max_stretch")
	}
}

func BenchmarkE10RecurseConnect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E10RecurseConnect()
		reportMax(b, t, 4, "max_stretch")
	}
}

func BenchmarkE11Distributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E11Distributed()
	}
}

func BenchmarkE12Derandomize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E12Derandomize()
	}
}

func BenchmarkAblationL0Reps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationL0Reps()
	}
}

func BenchmarkAblationRecoveryLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationRecoveryLoad()
	}
}

func BenchmarkAblationRoughEps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationRoughEps()
	}
}

func BenchmarkAblationGroupBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationGroupBudget()
	}
}

// --- facade throughput micro-benchmarks -----------------------------------

func BenchmarkConnectivityUpdate(b *testing.B) {
	c := NewConnectivitySketch(256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(i%255, (i+7)%255+1, 1)
	}
}

func BenchmarkMinCutSketchUpdate(b *testing.B) {
	m := NewMinCutSketchK(64, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Update(i%63, (i+5)%63+1, 1)
	}
}

func BenchmarkSparsifierUpdate(b *testing.B) {
	s := NewSparsifier(64, 0.5, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(i%63, (i+3)%63+1, 1)
	}
}

func BenchmarkSubgraphSketchUpdate(b *testing.B) {
	s := NewSubgraphSketch(32, 3, 100, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(i%31, (i+3)%31+1, 1)
	}
}

func BenchmarkSpannerEndToEnd(b *testing.B) {
	st := GNP(64, 0.25, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BaswanaSenSpanner(st, 3, uint64(i))
	}
}

func BenchmarkSparsifyEndToEndN24(b *testing.B) {
	st := PlantedPartition(24, 2, 0.7, 0.1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := NewSparsifier(24, 0.5, uint64(i))
		sp.Ingest(st)
		if _, err := sp.Sparsify(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sampler-substrate benchmarks: arena vs pointer-per-sampler ----------

// benchForestIngest measures whole-stream ingest (construction included,
// amortized over the stream) and reports per-update cost.
func benchForestIngest(b *testing.B, updates int, run func(st *Stream)) {
	st := UniformUpdates(256, updates, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(st)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*updates), "ns/update")
}

// BenchmarkForestIngest is the arena-backed ForestSketch ingest path.
func BenchmarkForestIngest(b *testing.B) {
	benchForestIngest(b, 100_000, func(st *Stream) {
		fs := agm.NewForestSketch(st.N, 1)
		fs.Ingest(st)
	})
}

// BenchmarkForestIngestPointerBaseline is the frozen pre-arena
// implementation (one *l0.Sampler per round and vertex).
func BenchmarkForestIngestPointerBaseline(b *testing.B) {
	benchForestIngest(b, 100_000, func(st *Stream) {
		fs := baseline.NewPointerForest(st.N, 1)
		fs.Ingest(st)
	})
}

// BenchmarkForestIngestParallel applies each staged chunk to the round
// banks from worker goroutines, one owner per bank; results are
// bit-identical to sequential ingest (scaling requires GOMAXPROCS > 1).
func BenchmarkForestIngestParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchForestIngest(b, 100_000, func(st *Stream) {
				fs := agm.NewForestSketch(st.N, 1)
				fs.IngestParallel(st, workers)
			})
		})
	}
}
