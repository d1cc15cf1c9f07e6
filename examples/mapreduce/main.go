// MapReduce: the paper's Sec. 1.1 observation that r-adaptive sketches
// analyze MapReduce algorithms with r rounds. Each round is one job:
// mappers sketch their edge partition with the measurements chosen from
// the previous round's reducer state; the reducer merges (sums) the
// per-mapper sketches and computes the next state.
//
// This example runs the RECURSECONNECT contraction as rounds and reports,
// per round, what the reducer saw — demonstrating why pass count (= number
// of MapReduce jobs) is the resource the Sec. 5 algorithms optimize.
package main

import (
	"fmt"

	"graphsketch"
)

const (
	n       = 72
	mappers = 6
	seed    = 31
)

func main() {
	st := graphsketch.GNP(n, 0.3, seed)
	g := graphsketch.FromStream(st)
	fmt.Printf("input: %d vertices, %d edges, %d mappers\n\n", n, g.NumEdges(), mappers)

	// Each "job" = one adaptive batch. We model mappers by partitioning
	// the stream; the spanner builders internally replay the full stream
	// per pass, which a MapReduce job realizes as: each mapper sketches
	// its shard and EMITS compact wire bytes, the reducer folds the
	// payloads with MergeBytes (linearity!), then picks the next round's
	// measurements. The shuffle below checks the mapper/reducer split
	// changes nothing — and reports the shuffle traffic against the mappers'
	// resident sketch bytes, since bytes crossing the shuffle are the
	// resource the compact encoding exists for.
	parts := st.Partition(mappers, seed)
	merged := graphsketch.NewConnectivitySketch(n, seed)
	var shuffleBytes, resident int
	for _, p := range parts {
		mapper := graphsketch.NewConnectivitySketch(n, seed)
		mapper.Ingest(p)
		wb, err := mapper.MarshalBinaryCompact()
		if err != nil {
			panic(err)
		}
		if err := merged.MergeBytes(wb); err != nil {
			panic(err)
		}
		shuffleBytes += len(wb)
		resident += int(mapper.Footprint().ResidentBytes)
	}
	fmt.Printf("round 0 (mapper shuffle check): merged connectivity = %v\n", merged.Connected())
	fmt.Printf("shuffle traffic: %d compact bytes vs %d resident (%.1f%%)\n\n",
		shuffleBytes, resident, 100*float64(shuffleBytes)/float64(resident))

	for _, k := range []int{4, 16} {
		res := graphsketch.RecurseConnectSpanner(st, k, seed)
		fmt.Printf("RECURSECONNECT k=%d: %d MapReduce rounds, spanner %d edges, stretch %.2f (bound %.1f)\n",
			k, res.Passes, res.Spanner.NumEdges(),
			graphsketch.MeasureStretch(g, res.Spanner, 12, seed), res.StretchBound)
	}
	fmt.Println()
	for _, k := range []int{4, 16} {
		res := graphsketch.BaswanaSenSpanner(st, k, seed)
		fmt.Printf("Baswana-Sen    k=%d: %d MapReduce rounds, spanner %d edges, stretch %.2f (bound %.0f)\n",
			k, res.Passes, res.Spanner.NumEdges(),
			graphsketch.MeasureStretch(g, res.Spanner, 12, seed), res.StretchBound)
	}
	fmt.Println("\nround count is the MapReduce cost; RECURSECONNECT trades stretch for rounds (Thm 5.1)")
}
