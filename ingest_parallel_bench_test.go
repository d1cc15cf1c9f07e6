package graphsketch

import (
	"fmt"
	"testing"

	"graphsketch/internal/agm"
)

// parallelIngester is the ingest surface BenchmarkIngestParallel drives.
type parallelIngester interface {
	IngestParallel(s *Stream, workers int)
}

// BenchmarkIngestParallel times IngestParallel for every sketch type whose
// parallel ingest fans out over owned units (levels, weight classes, banks,
// slot ranges), at 1 and 2 workers. Each op builds a fresh sketch outside
// the timer and replays one fixed stream into it, so ns/op and B/op are the
// ingest's own.
func BenchmarkIngestParallel(b *testing.B) {
	const n, m = 64, 32 // m sizes the sketches whose arenas run to hundreds of MB at n
	uniform := UniformUpdates(n, 20_000, 1)
	uniformM := UniformUpdates(m, 10_000, 5)
	weighted := WeightedGNP(m, 0.5, 16, 2).WithChurn(4_000, 3)
	small := UniformUpdates(24, 400, 4)
	cases := []struct {
		name string
		st   *Stream
		mk   func() parallelIngester
	}{
		{"MinCut", uniform, func() parallelIngester { return NewMinCutSketchK(n, 6, 1) }},
		{"SimpleSparsifier", uniform, func() parallelIngester { return NewSimpleSparsifier(n, 1, 1) }},
		{"Sparsifier", uniformM, func() parallelIngester { return NewSparsifier(m, 1, 1) }},
		{"WeightedSparsifier", weighted, func() parallelIngester { return NewWeightedSparsifier(m, 1, 16, 1) }},
		{"MST", weighted, func() parallelIngester { return NewMSTSketch(m, 16, 1) }},
		{"EdgeConnect", uniform, func() parallelIngester { return edgeConnect{agm.NewEdgeConnectSketch(n, 6, 1)} }},
		{"Bipartiteness", uniform, func() parallelIngester { return NewBipartitenessSketch(n, 1) }},
		{"Subgraph", small, func() parallelIngester { return NewSubgraphSketch(24, 3, 64, 1) }},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sk := c.mk()
					b.StartTimer()
					sk.IngestParallel(c.st, workers)
				}
			})
		}
	}
}

// edgeConnect adapts the internal k-EDGECONNECT sketch (no facade type of
// its own) to parallelIngester.
type edgeConnect struct{ *agm.EdgeConnectSketch }
