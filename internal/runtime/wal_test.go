package runtime_test

import (
	"bytes"
	"testing"

	"graphsketch"
	"graphsketch/internal/runtime"
	"graphsketch/internal/stream"
)

const walTestN = 48

func connFactory(seed uint64) runtime.Factory {
	return func() runtime.Sketch { return graphsketch.NewConnectivitySketch(walTestN, seed) }
}

// compactOf marshals a sketch's canonical compact payload or fails.
func compactOf(t *testing.T, sk runtime.Sketch) []byte {
	t.Helper()
	b, err := sk.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// testStream builds a deletion-heavy stream (churn exercises cancellation
// through the WAL path).
func testStream(seed uint64) *stream.Stream {
	return stream.GNP(walTestN, 0.15, seed).WithChurn(400, seed^1)
}

// TestRecoveryBitIdentity is the core WAL property, on disk: for seeded
// crash points (with and without torn tails and snapshots), abandoning the
// writer, reopening its files, recovering and re-feeding from the
// recovered position yields a sketch bit-identical to the uninterrupted
// run.
func TestRecoveryBitIdentity(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		st := testStream(seed)
		ref := graphsketch.NewConnectivitySketch(walTestN, seed)
		ref.UpdateBatch(st.Updates)
		want := compactOf(t, ref)

		for _, cfg := range []struct {
			name      string
			snapEvery int
			crashAt   int // batch index to crash after
			torn      int // log tail bytes lost in the crash
		}{
			{"no-snapshot", 0, 3, 0},
			{"no-snapshot-torn", 0, 3, 17},
			{"snapshots", 150, 5, 0},
			{"snapshots-torn", 150, 5, 23},
			{"crash-at-start", 0, 0, 9999},
		} {
			dir := t.TempDir()
			disk := runtime.DiskConfig{Policy: runtime.FsyncNever}
			w, err := runtime.OpenDiskWAL(dir, walTestN, disk)
			if err != nil {
				t.Fatal(err)
			}
			sk := connFactory(seed)()
			batch := 100
			pos, bi, since := 0, 0, 0
			for pos < len(st.Updates) {
				end := min(pos+batch, len(st.Updates))
				if err := w.Append(st.Updates[pos:end]); err != nil {
					t.Fatalf("%s: append: %v", cfg.name, err)
				}
				sk.UpdateBatch(st.Updates[pos:end])
				since += end - pos
				if cfg.snapEvery > 0 && since >= cfg.snapEvery {
					if err := w.Snapshot(sk); err != nil {
						t.Fatalf("%s: snapshot: %v", cfg.name, err)
					}
					since = 0
				}
				pos = end
				if bi == cfg.crashAt {
					// The crash: w and sk are abandoned unclosed, and the
					// log may lose its tail mid-record.
					if err := runtime.TearLog(dir, cfg.torn); err != nil {
						t.Fatalf("%s: tear: %v", cfg.name, err)
					}
					if w, err = runtime.OpenDiskWAL(dir, walTestN, disk); err != nil {
						t.Fatalf("%s: reopen: %v", cfg.name, err)
					}
					var recovered int
					if sk, recovered, err = w.Recover(connFactory(seed)); err != nil {
						t.Fatalf("%s: recover: %v", cfg.name, err)
					}
					if recovered > pos {
						t.Fatalf("%s: recovered %d > fed %d", cfg.name, recovered, pos)
					}
					pos, since = recovered, 0 // re-feed what the torn tail lost
				}
				bi++
			}
			if !bytes.Equal(compactOf(t, sk), want) {
				t.Fatalf("seed %d %s: recovered sketch not bit-identical", seed, cfg.name)
			}
			w.Close()
		}
	}
}

// openDisk opens a fresh DiskWAL in a test directory.
func openDisk(t *testing.T) (*runtime.DiskWAL, string) {
	t.Helper()
	dir := t.TempDir()
	w, err := runtime.OpenDiskWAL(dir, walTestN, runtime.DiskConfig{Policy: runtime.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, dir
}

// TestCompactBitNeutral pins that WAL compaction (stream.Coalesce) does
// not change what recovery produces.
func TestCompactBitNeutral(t *testing.T) {
	st := testStream(42)
	w, _ := openDisk(t)
	for pos := 0; pos < len(st.Updates); pos += 128 {
		if err := w.Append(st.Updates[pos:min(pos+128, len(st.Updates))]); err != nil {
			t.Fatal(err)
		}
	}
	plain, nPlain, err := w.Recover(connFactory(42))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	sizeBefore, replayBefore := w.LogBytes(), w.ReplayUpdates()
	if err := w.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	compacted, nCompact, err := w.Recover(connFactory(42))
	if err != nil {
		t.Fatalf("recover after compact: %v", err)
	}
	if !bytes.Equal(compactOf(t, plain), compactOf(t, compacted)) {
		t.Fatal("compaction changed the recovered sketch")
	}
	if w.LogBytes() >= sizeBefore {
		t.Fatalf("compaction did not shrink the log: %d -> %d", sizeBefore, w.LogBytes())
	}
	if nCompact != nPlain || w.ReplayUpdates() > replayBefore {
		t.Fatalf("compaction moved the position %d -> %d or grew replay %d -> %d",
			nPlain, nCompact, replayBefore, w.ReplayUpdates())
	}
}

// TestTornTailTolerated pins that any truncation of the log is treated as
// end-of-log: recovery never errors and never replays more than was fed.
func TestTornTailTolerated(t *testing.T) {
	st := testStream(7)
	for _, torn := range []int{1, 3, 7, 8, 9, 40, 1000, 1 << 20} {
		w, dir := openDisk(t)
		for pos := 0; pos < len(st.Updates); pos += 256 {
			if err := w.Append(st.Updates[pos:min(pos+256, len(st.Updates))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := runtime.TearLog(dir, torn); err != nil {
			t.Fatalf("torn=%d: tear: %v", torn, err)
		}
		w2, err := runtime.OpenDiskWAL(dir, walTestN, runtime.DiskConfig{Policy: runtime.FsyncNever})
		if err != nil {
			t.Fatalf("torn=%d: reopen: %v", torn, err)
		}
		sk, n, err := w2.Recover(connFactory(7))
		w2.Close()
		if err != nil {
			t.Fatalf("torn=%d: recover: %v", torn, err)
		}
		if sk == nil || n > len(st.Updates) {
			t.Fatalf("torn=%d: bad recovery (n=%d)", torn, n)
		}
	}
}

// TestSnapshotDropsLog pins that snapshotting bounds durable bytes: after
// a snapshot the log restarts empty, so a reopened WAL replays only the
// updates since, yet recovery still sees everything.
func TestSnapshotDropsLog(t *testing.T) {
	st := testStream(11)
	dir := t.TempDir()
	disk := runtime.DiskConfig{Policy: runtime.FsyncNever}
	w, err := runtime.OpenDiskWAL(dir, walTestN, disk)
	if err != nil {
		t.Fatal(err)
	}
	feedDisk(t, w, connFactory(11)(), st.Updates, 200)
	w2, err := runtime.OpenDiskWAL(dir, walTestN, disk)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if w2.ReplayUpdates() >= len(st.Updates) || w2.SnapshotUpdates() == 0 {
		t.Fatalf("snapshot dropped nothing: replay %d of %d, snapshot covers %d",
			w2.ReplayUpdates(), len(st.Updates), w2.SnapshotUpdates())
	}
	sk, _, err := w2.Recover(connFactory(11))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	ref := graphsketch.NewConnectivitySketch(walTestN, 11)
	ref.UpdateBatch(st.Updates)
	if !bytes.Equal(compactOf(t, sk), compactOf(t, ref)) {
		t.Fatal("snapshot+log recovery not bit-identical")
	}
}
