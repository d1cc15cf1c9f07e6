package service

import (
	"fmt"
	"testing"

	"graphsketch/internal/stream"
)

// publishFixture is the publish-path fixture the micro-benchmarks and the
// byte-identity goldens share: the serve-default bundle shape, a density-½
// base graph, and a duplicate-free 256-toggle dirtying step (present edges
// are deleted, absent ones inserted) — one EpochEvery's worth of updates.
func publishFixture() (cfg BundleConfig, base, toggles []stream.Update) {
	cfg = DefaultBundleConfig(64, 1)
	base = stream.GNP(cfg.N, 0.5, 1).Updates
	present := make(map[uint64]bool, len(base))
	for _, u := range base {
		present[stream.EdgeIndex(u.U, u.V, cfg.N)] = true
	}
	toggles = stream.GNP(cfg.N, 0.5, 2).Shuffle(3).Updates[:256]
	for i, u := range toggles {
		if present[stream.EdgeIndex(u.U, u.V, cfg.N)] {
			toggles[i].Delta = -1
		}
	}
	return cfg, base, toggles
}

// toggler applies the toggle step and then flips its sign, so a benchmark
// loop writes the same 256 edges every iteration without the state
// drifting.
type toggler struct{ ups []stream.Update }

func (d *toggler) step(b *Bundle) {
	b.UpdateBatch(d.ups)
	for i := range d.ups {
		d.ups[i].Delta = -d.ups[i].Delta
	}
}

// benchBundle returns a bundle holding the base graph — the writer's live
// bundle between two publishes.
func benchBundle(b *testing.B) (*Bundle, *toggler) {
	cfg, base, toggles := publishFixture()
	live := NewBundle(cfg)
	live.UpdateBatch(base)
	return live, &toggler{ups: toggles}
}

var benchSink int64

func BenchmarkBundleResidentBytes(b *testing.B) {
	live, _ := benchBundle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += live.ResidentBytes()
	}
}

// BenchmarkBundleUpdateBatch is one bulk batch through the kernel, which
// also keeps every bank's digest current; Manifest then only reads them.
func BenchmarkBundleUpdateBatch(b *testing.B) {
	live, d := benchBundle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.step(live)
	}
}

// BenchmarkBundleUpdateBatchSmall is a trickle-sized batch (8 updates), so
// the fixed cost of fanning a batch out across the levels shows.
func BenchmarkBundleUpdateBatchSmall(b *testing.B) {
	live, d := benchBundle(b)
	d.ups = d.ups[:8]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.step(live)
	}
}

// BenchmarkBundleManifest is the publish's digest step after a batch. Its
// cost does not depend on what the batch changed, so one step up front
// stands for all of them.
func BenchmarkBundleManifest(b *testing.B) {
	live, d := benchBundle(b)
	d.step(live)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		man, err := live.Manifest()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += int64(len(man.Banks))
	}
}

func BenchmarkBundleClone(b *testing.B) {
	live, _ := benchBundle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += int64(live.Clone().NumBanks())
	}
}

// BenchmarkBundleCloneThenUpdate is a publish and the batch after it. The
// clone shares every arena with the live bundle, so the batch copies them:
// the ones it writes as it writes them, then the rest. The
// arenas-copied/op metric counts them (900 is the whole bundle).
func BenchmarkBundleCloneThenUpdate(b *testing.B) {
	for _, n := range []int{8, 256} {
		b.Run(fmt.Sprintf("updates=%d", n), func(b *testing.B) {
			live, d := benchBundle(b)
			d.ups = d.ups[:n]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += int64(live.Clone().NumBanks())
				d.step(live)
			}
			b.StopTimer()
			epoch := live.Clone()
			d.step(live)
			b.ReportMetric(float64(arenasCopied(live, epoch)), "arenas-copied/op")
		})
	}
}

// BenchmarkBundleEpochSmallBatches is one epoch of trickle ingest: a
// publish, then EpochEvery (256) updates in 8-update batches. Each batch
// writes a third of the arenas, and the epoch's batches write them all, so
// this is where it shows when the copies the publish deferred are made.
func BenchmarkBundleEpochSmallBatches(b *testing.B) {
	live, d := benchBundle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += int64(live.Clone().NumBanks())
		for j := 0; j < len(d.ups); j += 8 {
			live.UpdateBatch(d.ups[j : j+8])
		}
		for k := range d.ups {
			d.ups[k].Delta = -d.ups[k].Delta
		}
	}
}

// arenasCopied counts the arenas of b that no longer share their cells with
// the same arena of its clone.
func arenasCopied(b, clone *Bundle) int {
	n := 0
	for id := 0; id < b.sp.NumBanks(); id++ {
		cas := clone.sp.BankArenas(id)
		for i, a := range b.sp.BankArenas(id) {
			if !a.SharesCells(cas[i]) {
				n++
			}
		}
	}
	return n
}

// BenchmarkBundleClonePristine clones a factory-fresh bundle: tenant
// creation's first epoch, whose arenas hold no occupied slot.
func BenchmarkBundleClonePristine(b *testing.B) {
	cfg, _, _ := publishFixture()
	fresh := NewBundle(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += int64(fresh.Clone().NumBanks())
	}
}

// BenchmarkBundleMarshalCompact is the WAL-snapshot case: the snapshot runs
// right after a batch, ahead of the publish in the same op.
func BenchmarkBundleMarshalCompact(b *testing.B) {
	live, d := benchBundle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d.step(live)
		b.StartTimer()
		data, err := live.MarshalBinaryCompact()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += int64(len(data))
	}
}

// BenchmarkBundleMergeBytesFresh is recovery's and a full pull's restore:
// one full payload folded into a factory-fresh bundle.
func BenchmarkBundleMergeBytesFresh(b *testing.B) {
	live, _ := benchBundle(b)
	payload, err := live.MarshalBinaryCompact()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := NewBundle(live.Config())
		b.StartTimer()
		if err := fresh.MergeBytes(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBundleOpenFromSnapshot is what opening a tenant from a snapshot
// costs in cells: NewBundle and the fold of one full payload into it, timed
// together (recovery, Server.Merge into a fresh tenant, and reopening an
// evicted tenant all start this way). A fresh bundle's arenas sit on the
// zero slab, so the fold's staging clone allocates the only cells.
func BenchmarkBundleOpenFromSnapshot(b *testing.B) {
	live, _ := benchBundle(b)
	payload, err := live.MarshalBinaryCompact()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := NewBundle(live.Config())
		if err := fresh.MergeBytes(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpochSpannerCold is an epoch's first spanner query: publish a
// clone of the live bundle (the density-½ base graph, ~1,000 coalesced
// edges at n = 64), then build its spanner. Every iteration is a new epoch
// of one tenant, so it draws the builder the previous one returned.
func BenchmarkEpochSpannerCold(b *testing.B) {
	live, _ := benchBundle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += int64(live.Clone().Spanner().Spanner.NumEdges())
	}
}

// BenchmarkEpochSparsifyCold is an epoch's first sparsify query: publish a
// clone of the live bundle, then decode its sparsifier (witness extraction
// plus the per-level k-connectivity classes Fig 2 step 3 probes). gnp0.5 is
// publishFixture's base graph; gnp0.3 is the GNP(64, 0.3) base graph the
// end-to-end benchmark preloads.
func BenchmarkEpochSparsifyCold(b *testing.B) {
	cfg, base, _ := publishFixture()
	for _, fx := range []struct {
		name string
		base []stream.Update
	}{
		{"gnp0.5", base},
		{"gnp0.3", stream.GNP(cfg.N, 0.3, 1).Updates},
	} {
		b.Run(fx.name, func(b *testing.B) {
			live := NewBundle(cfg)
			live.UpdateBatch(fx.base)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := live.Clone().Sparsify()
				if err != nil {
					b.Fatal(err)
				}
				benchSink += int64(g.NumEdges())
			}
		})
	}
}

// BenchmarkEpochMinCutCold is an epoch's first min-cut query: publish a
// clone of the live bundle, then run Fig 1's level scan on it (witness
// extraction of each level's first K forests, Stoer–Wagner where a witness
// is not provably saturated), on the same two base graphs as
// BenchmarkEpochSparsifyCold.
func BenchmarkEpochMinCutCold(b *testing.B) {
	cfg, base, _ := publishFixture()
	for _, fx := range []struct {
		name string
		base []stream.Update
	}{
		{"gnp0.5", base},
		{"gnp0.3", stream.GNP(cfg.N, 0.3, 1).Updates},
	} {
		b.Run(fx.name, func(b *testing.B) {
			live := NewBundle(cfg)
			live.UpdateBatch(fx.base)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := live.Clone().MinCut()
				if err != nil {
					b.Fatal(err)
				}
				benchSink += r.Value
			}
		})
	}
}
