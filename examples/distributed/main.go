// Distributed: the stream is split across four ingestion sites (think four
// data centers each seeing a share of the edge updates). Each site is a
// service.Server with its own write-ahead log, fed its share over HTTP; the
// coordinator pulls every site's sealed compact payload and folds them
// with MergeBytes. Linearity guarantees the fold is byte-identical to the
// bundle one server would have built from the whole stream (Sec. 1.1), and
// that guarantee is what makes fault tolerance cheap: a lost payload is
// re-pulled, a re-sent batch is refused by its stream position, a crashed
// site replays its WAL, and the fold happens whenever the bytes arrive.
//
// The deployment runs twice through internal/faultnet: on a clean network,
// then through the failure matrix's chaos column — requests and replies
// dropped, duplicated and bit-flipped, site servers killed mid-ingest with
// torn log tails. Both must fold to the same bytes. The facade-level fold
// (sketch, marshal, MergeBytes) is examples/mapreduce.
package main

import (
	"fmt"

	"graphsketch"
	"graphsketch/internal/faultnet"
	"graphsketch/internal/service"
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
	bundle := service.BundleConfig{N: n, K: 4, Eps: 1.0, SpannerK: 2, Seed: seed}

	// The linearity oracle: one bundle fed the whole stream, uninterrupted.
	whole := service.NewBundle(bundle)
	whole.UpdateBatch(st.Updates)
	want, err := whole.MarshalBinaryCompact()
	if err != nil {
		panic(err)
	}
	fmt.Printf("stream: %d updates across %d sites; the whole-stream bundle is %d compact bytes (%d resident)\n",
		st.Len(), sites, len(want), whole.ResidentBytes())

	for _, sc := range faultnet.Scenarios(seed) {
		if sc.Name != "clean" && sc.Name != "chaos" {
			continue
		}
		rep, folded, err := faultnet.Run(faultnet.Config{
			Sites: sites, Batch: 40, SnapshotEvery: 120, Bundle: bundle, Faults: sc.Faults, Crashes: sc.Crashes,
		}, st, want)
		if err != nil {
			panic(err)
		}
		fmt.Printf("\n%s network:\n", sc.Name)
		fmt.Printf("  transport: %d requests carrying %d bytes; %d dropped, %d duplicated, %d corrupted\n",
			rep.Net.Messages, rep.Net.Bytes, rep.Net.Dropped, rep.Net.Duplicate, rep.Net.Corrupted)
		fmt.Printf("  crashes survived: %d (WAL replays cost %dus virtual time)\n", rep.Crashes, rep.RecoveryTimeUs)
		fmt.Printf("  retries: %d sealed bodies re-sent (%d bytes), %d corrupt bodies rejected\n",
			rep.Retransmissions, rep.RetransmittedBytes, rep.CorruptPayloads)
		fmt.Printf("  coverage %.2f, fold identical to the whole-stream bundle: %v\n", rep.Coverage, rep.BitIdentical)
		if !rep.BitIdentical {
			panic("the " + sc.Name + " run diverged from the whole-stream bundle")
		}
		// The fold answers queries like any bundle.
		b := service.NewBundle(bundle)
		if err := b.MergeBytes(folded); err != nil {
			panic(err)
		}
		mc, err := b.MinCut()
		if err != nil {
			panic(err)
		}
		fmt.Printf("  min cut of the fold: %v (the planted bottleneck is 3 edges)\n", mc.Value)
	}
}
