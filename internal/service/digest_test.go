package service

import (
	"math/rand"
	"testing"

	"graphsketch/internal/runtime"
	"graphsketch/internal/stream"
)

// checkLeaves fails unless b's maintained manifest is the digest of its
// state, read two independent ways: scanned from the cells and the log
// (VerifyDigests), and decoded from the bundle's own bytes by a fresh
// bundle, whose merge checks every bank against its leaf.
func checkLeaves(t *testing.T, step string, b *Bundle) {
	t.Helper()
	if err := b.VerifyDigests(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	data, err := b.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewBundle(b.Config()).MergeBytes(data); err != nil {
		t.Fatalf("%s: own payload fails its leaves: %v", step, err)
	}
}

// sameRoot fails unless the two bundles publish the same root.
func sameRoot(t *testing.T, step string, a, b *Bundle) {
	t.Helper()
	ma, _ := a.Manifest()
	mb, _ := b.Manifest()
	if ma.Root() != mb.Root() {
		t.Fatalf("%s: root %016x != %016x (diff %v)", step, ma.Root(), mb.Root(), ma.Diff(mb))
	}
}

// digestOps draws a random batch: churn with cancellations and self-loops,
// or (wrap) deltas near +-2^62, so counts and log deltas wrap int64.
func digestOps(rng *rand.Rand, n, count int, wrap bool) []stream.Update {
	ups := make([]stream.Update, count)
	for i := range ups {
		d := int64(rng.Intn(5) - 2)
		if wrap {
			d = int64(1)<<62 - int64(rng.Intn(3))
			if rng.Intn(2) == 0 {
				d = -d
			}
		}
		ups[i] = stream.Update{U: rng.Intn(n), V: rng.Intn(n), Delta: d}
	}
	return ups
}

// ingestParallel is UpdateBatch through the sparsifier's IngestParallel,
// one owner per level.
func ingestParallel(b *Bundle, ups []stream.Update, workers int) {
	st := &stream.Stream{N: b.cfg.N, Updates: ups}
	b.sp.IngestParallel(st, workers)
	b.appendLog(ups)
}

// TestDigestEquivalence runs mixed op sequences over 20 seeds and requires,
// after every op, that the maintained manifest is the digest of the state,
// and at the end that a bundle fed the same multiset of updates in another
// order and batching publishes the same root.
func TestDigestEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := BundleConfig{N: 8, K: 2, Eps: 4, SpannerK: 2, Seed: seed}
		rng := rand.New(rand.NewSource(int64(seed)))
		live := NewBundle(cfg)
		wal, err := runtime.OpenDiskWAL(t.TempDir(), cfg.N, runtime.DiskConfig{Policy: runtime.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer wal.Close()
		var all []stream.Update
		apply := func(step string, ups []stream.Update, workers int) {
			t.Helper()
			if workers > 1 {
				ingestParallel(live, ups, workers)
			} else {
				live.UpdateBatch(ups)
			}
			if err := wal.Append(ups); err != nil {
				t.Fatal(err)
			}
			all = append(all, ups...)
			checkLeaves(t, step, live)
		}
		for round := 0; round < 2; round++ {
			apply("UpdateBatch", digestOps(rng, cfg.N, 40+rng.Intn(80), false), 1)
			apply("sharded ingest", digestOps(rng, cfg.N, 60, false), 3)
			apply("near 2^62", digestOps(rng, cfg.N, 12, true), 1+rng.Intn(2))

			// A peer's full payload folded into the live bundle.
			other := NewBundle(cfg)
			otherUps := digestOps(rng, cfg.N, 50, round == 1)
			other.UpdateBatch(otherUps)
			payload, err := other.MarshalBinaryCompact()
			if err != nil {
				t.Fatal(err)
			}
			if err := live.MergeBytes(payload); err != nil {
				t.Fatalf("seed %d: MergeBytes into live: %v", seed, err)
			}
			if err := wal.Append(otherUps); err != nil { // linearity: the merge is this batch
				t.Fatal(err)
			}
			all = append(all, otherUps...)
			checkLeaves(t, "MergeBytes into live", live)

			// The live payload into a fresh bundle.
			data, err := live.MarshalBinaryCompact()
			if err != nil {
				t.Fatal(err)
			}
			fresh := NewBundle(cfg)
			if err := fresh.MergeBytes(data); err != nil {
				t.Fatalf("seed %d: MergeBytes into fresh: %v", seed, err)
			}
			checkLeaves(t, "MergeBytes into fresh", fresh)
			sameRoot(t, "MergeBytes into fresh", fresh, live)

			// A stale clone caught up by a bank-granular install.
			stale := live.Clone()
			checkLeaves(t, "Clone", stale)
			apply("UpdateBatch after clone", digestOps(rng, cfg.N, 30, false), 1)
			theirs, _ := live.Manifest()
			mine, _ := stale.Manifest()
			delta, err := live.MarshalBanks(mine.Diff(theirs))
			if err != nil {
				t.Fatal(err)
			}
			if err := stale.InstallBanks(delta); err != nil {
				t.Fatalf("seed %d: InstallBanks: %v", seed, err)
			}
			checkLeaves(t, "InstallBanks", stale)
			sameRoot(t, "InstallBanks", stale, live)

			// Recovery: snapshot, more log, replay.
			if round == 1 {
				if err := wal.Snapshot(live); err != nil {
					t.Fatal(err)
				}
			}
			sk, _, err := wal.Recover(func() runtime.Sketch { return NewBundle(cfg) })
			if err != nil {
				t.Fatalf("seed %d: recover: %v", seed, err)
			}
			checkLeaves(t, "Recover", sk.(*Bundle))
			sameRoot(t, "Recover", sk.(*Bundle), live)
		}

		// The same multiset, shuffled and re-batched.
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		twin := NewBundle(cfg)
		for rest := all; len(rest) > 0; {
			k := 1 + rng.Intn(97)
			if k > len(rest) {
				k = len(rest)
			}
			twin.UpdateBatch(rest[:k])
			rest = rest[k:]
		}
		checkLeaves(t, "twin", twin)
		sameRoot(t, "different batchings", twin, live)
	}
}
