// Distributed: the stream is split across four ingestion sites (think four
// data centers each seeing a share of the edge updates). Each site builds
// its own sketch, SERIALIZES it in the compact wire format, and ships the
// bytes; the coordinator folds the payloads with MergeBytes — no second
// sketch is ever materialized. Linearity guarantees the merged sketch is
// byte-identical to the sketch a single site would have built from the
// whole stream (Sec. 1.1), and that guarantee is what makes fault
// tolerance cheap: a lost payload is just re-requested, a crashed site
// replays its WAL, and the fold happens whenever the bytes arrive.
//
// Act 1 runs the clean protocol by hand and measures the wire economics.
// Act 2 reruns the deployment on the fault-injecting runtime — messages
// dropped, duplicated, and corrupted; sites crashing mid-ingest with torn
// WAL tails — and shows the coordinator still converging to the exact
// same bytes.
package main

import (
	"fmt"

	"graphsketch"
	rt "graphsketch/internal/runtime"
)

const (
	n     = 28
	sites = 4
	seed  = 99
)

func main() {
	// A two-community graph with a 3-edge bottleneck.
	st := graphsketch.PlantedPartition(n, 2, 0.8, 0.0, seed)
	st.Updates = append(st.Updates,
		graphsketch.Update{U: 0, V: 14, Delta: 1},
		graphsketch.Update{U: 3, V: 17, Delta: 1},
		graphsketch.Update{U: 7, V: 21, Delta: 1},
	)
	parts := st.Partition(sites, seed)
	fmt.Printf("stream: %d updates split across %d sites:", st.Len(), sites)
	for _, p := range parts {
		fmt.Printf(" %d", p.Len())
	}
	fmt.Println(" updates each")

	// ---- Act 1: the clean protocol, by hand. Same seed at every site:
	// that is the protocol contract making the sketches summable.
	merged := graphsketch.NewConnectivitySketch(n, seed)
	var wireCompact, resident int
	for i, p := range parts {
		conn := graphsketch.NewConnectivitySketch(n, seed)
		conn.Ingest(p)
		wb, err := conn.MarshalBinaryCompact()
		if err != nil {
			panic(err)
		}
		if err := merged.MergeBytes(wb); err != nil {
			panic(err)
		}
		wireCompact += len(wb)
		resident += int(conn.Footprint().ResidentBytes)
		fmt.Printf("site %d sketched and shipped %d compact bytes\n", i, len(wb))
	}
	fmt.Printf("\nwire traffic: %d compact bytes vs %d resident (%.1f%% — %.0fx smaller)\n",
		wireCompact, resident, 100*float64(wireCompact)/float64(resident),
		float64(resident)/float64(wireCompact))
	fmt.Printf("merged sketch answers: connected = %v\n", merged.Connected())

	// The linearity oracle: one uninterrupted site over the whole stream.
	whole := graphsketch.NewConnectivitySketch(n, seed)
	whole.Ingest(st)
	reference, err := whole.MarshalBinaryCompact()
	if err != nil {
		panic(err)
	}
	mergedBytes, err := merged.MarshalBinaryCompact()
	if err != nil {
		panic(err)
	}
	fmt.Printf("linearity: merged == single-site bytes: %v\n\n",
		string(mergedBytes) == string(reference))

	// ---- Act 2: the same deployment on the fault-injecting runtime. A
	// fifth of the messages are dropped, a quarter duplicated, some
	// corrupted in flight (caught by the checksummed envelope); sites crash
	// after random batches and recover from their write-ahead logs, some
	// with torn tails. The coordinator retries with backoff and dedupes by
	// payload epoch until it holds one valid payload per site.
	cluster := rt.NewCluster(rt.ClusterConfig{
		Sites:         sites,
		BatchSize:     40,
		SnapshotEvery: 120,
		Faults: rt.FaultPlan{
			Seed: seed, DropProb: 0.20, DupProb: 0.25, CorruptProb: 0.15,
			DelayBase: 500, DelayJitter: 4000,
		},
		Crashes: rt.CrashPlan{
			Seed: seed ^ 0xC0FFEE, CrashProb: 0.20, TornTailProb: 0.5, MaxTornBytes: 80,
		},
		RecoveryPerUpdate: 1,
	}, n, func() rt.Sketch { return graphsketch.NewConnectivitySketch(n, seed) })
	if err := cluster.Ingest(st); err != nil {
		panic(err)
	}
	cluster.Collect()
	rep, err := cluster.Report(st.Len(), reference)
	if err != nil {
		panic(err)
	}
	fmt.Println("fault-injected rerun:")
	fmt.Printf("  crashes survived: %d (WAL replays cost %dus virtual time)\n",
		rep.Crashes, rep.RecoveryTimeUs)
	fmt.Printf("  transport: %d messages, %d dropped, %d duplicated, %d corrupted\n",
		rep.Net.Messages, rep.Net.Dropped, rep.Net.Duplicate, rep.Net.Corrupted)
	fmt.Printf("  retries: %d retransmissions, %d bytes re-shipped, %d corrupt payloads rejected\n",
		rep.Retransmissions, rep.RetransmittedBytes, rep.CorruptPayloads)
	fmt.Printf("  coverage %.2f, merged bytes identical to single-site run: %v\n",
		rep.Coverage, rep.BitIdentical)
	if !rep.BitIdentical {
		panic("fault-injected run diverged from the single-site reference")
	}
}
