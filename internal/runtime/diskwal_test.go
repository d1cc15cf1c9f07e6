package runtime_test

import (
	"bytes"
	"os"
	"testing"

	"graphsketch/internal/runtime"
	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// feedDisk appends st.Updates[from:] in fixed batches, snapshotting through
// a live sketch when snapEvery > 0, and returns the live sketch. The
// returned DiskWAL is deliberately NOT closed by callers that model a
// SIGKILL — recovery must work from the files alone.
func feedDisk(t *testing.T, w *runtime.DiskWAL, sk runtime.Sketch, ups []stream.Update, snapEvery int) {
	t.Helper()
	since := 0
	for pos := 0; pos < len(ups); {
		end := min(pos+100, len(ups))
		batch := ups[pos:end]
		if err := w.Append(batch); err != nil {
			t.Fatalf("append: %v", err)
		}
		sk.UpdateBatch(batch)
		since += len(batch)
		if snapEvery > 0 && since >= snapEvery {
			if err := w.Snapshot(sk); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			since = 0
		}
		pos = end
	}
}

// TestDiskWALCrashBoundaries table-tests every crash boundary of the
// snapshot/log pair: for each, the process is "SIGKILLed" (the DiskWAL
// abandoned without Close, files possibly doctored to freeze the crash
// window), reopened, and recovered. The recovered sketch re-fed from the
// reported durable position must be bit-identical to an uninterrupted run,
// which also proves zero double-replay — a double-applied delta would
// change the linear sketch's counters and so its compact bytes.
func TestDiskWALCrashBoundaries(t *testing.T) {
	boundaries := []struct {
		name   string
		sabot  func(t *testing.T, dir string, w *runtime.DiskWAL, sk runtime.Sketch, ups []stream.Update)
		minPos func(total int) int // recovered position must be >= this
	}{
		{
			// Baseline: all writes completed, nothing torn.
			name: "clean-kill",
			sabot: func(t *testing.T, dir string, w *runtime.DiskWAL, sk runtime.Sketch, ups []stream.Update) {
				feedDisk(t, w, sk, ups, 0)
			},
			minPos: func(total int) int { return total },
		},
		{
			// Crash mid-append: the final record is half-written.
			name: "torn-tail",
			sabot: func(t *testing.T, dir string, w *runtime.DiskWAL, sk runtime.Sketch, ups []stream.Update) {
				feedDisk(t, w, sk, ups, 0)
				tearFile(t, runtime.LogPath(dir), 13)
			},
			minPos: func(total int) int { return 0 },
		},
		{
			// Crash mid-snapshot: the tmp file exists, the rename never
			// happened. The previous snapshot + full log are authoritative.
			name: "mid-snapshot",
			sabot: func(t *testing.T, dir string, w *runtime.DiskWAL, sk runtime.Sketch, ups []stream.Update) {
				feedDisk(t, w, sk, ups[:len(ups)/2], 150)
				feedDisk(t, w, sk, ups[len(ups)/2:], 0)
				if err := os.WriteFile(runtime.SnapshotPath(dir)+".tmp", []byte("half-written snapshot"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			minPos: func(total int) int { return total },
		},
		{
			// Crash between snapshot publish and log reset: the snapshot is
			// at generation g+1, the log still holds generation-g records it
			// fully covers. Open must discard the log — replaying it on top
			// of the snapshot would double-apply every update.
			name: "post-snapshot-pre-reset",
			sabot: func(t *testing.T, dir string, w *runtime.DiskWAL, sk runtime.Sketch, ups []stream.Update) {
				feedDisk(t, w, sk, ups, 0)
				stale, err := os.ReadFile(runtime.LogPath(dir))
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Snapshot(sk); err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				if err := os.WriteFile(runtime.LogPath(dir), stale, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			minPos: func(total int) int { return total },
		},
		{
			// Torn tail over a compacted log: compaction rewrote history as
			// one coalesced record carrying the original end position, then
			// fresh appends followed. Tearing must cost only the torn
			// suffix, and the surviving positions must still be exact.
			name: "torn-over-compacted",
			sabot: func(t *testing.T, dir string, w *runtime.DiskWAL, sk runtime.Sketch, ups []stream.Update) {
				half := len(ups) / 2
				feedDisk(t, w, sk, ups[:half], 0)
				if err := w.Compact(); err != nil {
					t.Fatalf("compact: %v", err)
				}
				if got := w.DurableUpdates(); got != half {
					t.Fatalf("position moved under compaction: %d, want %d", got, half)
				}
				if w.ReplayUpdates() >= half {
					t.Fatalf("compaction did not shrink replay: %d updates for position %d", w.ReplayUpdates(), half)
				}
				feedDisk(t, w, sk, ups[half:], 0)
				tearFile(t, runtime.LogPath(dir), 9)
			},
			minPos: func(total int) int { return total / 2 },
		},
	}

	for _, policy := range []runtime.FsyncPolicy{runtime.FsyncAlways, runtime.FsyncInterval, runtime.FsyncNever} {
		for _, bc := range boundaries {
			t.Run(policy.String()+"/"+bc.name, func(t *testing.T) {
				seed := uint64(31)
				st := testStream(seed)
				dir := t.TempDir()
				cfg := runtime.DiskConfig{Policy: policy, Every: 8}

				w, err := runtime.OpenDiskWAL(dir, walTestN, cfg)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				live := connFactory(seed)()
				bc.sabot(t, dir, w, live, st.Updates)
				// SIGKILL: no Close, no flush — the files as written are all
				// that survives.

				w2, err := runtime.OpenDiskWAL(dir, walTestN, cfg)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer w2.Close()
				sk, pos, err := w2.Recover(connFactory(seed))
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if pos != w2.DurableUpdates() {
					t.Fatalf("Recover position %d != DurableUpdates %d", pos, w2.DurableUpdates())
				}
				if pos > len(st.Updates) {
					t.Fatalf("recovered position %d > fed %d", pos, len(st.Updates))
				}
				if m := bc.minPos(len(st.Updates)); pos < m {
					t.Fatalf("recovered position %d, want >= %d", pos, m)
				}
				// Re-feed exactly the unacknowledged suffix. Bit-identity
				// with the uninterrupted run proves the position is exact:
				// one update short and an edge is missing, one update over
				// and it is double-counted.
				sk.UpdateBatch(st.Updates[pos:])
				ref := connFactory(seed)()
				ref.UpdateBatch(st.Updates)
				if !bytes.Equal(compactOf(t, sk), compactOf(t, ref)) {
					t.Fatal("recover + re-feed not bit-identical to uninterrupted run")
				}
			})
		}
	}
}

// TestDiskWALZeroDoubleReplay pins the generation rule directly: after the
// post-snapshot-pre-reset crash, the superseded log must contribute zero
// replayed updates.
func TestDiskWALZeroDoubleReplay(t *testing.T) {
	seed := uint64(5)
	st := testStream(seed)
	dir := t.TempDir()
	cfg := runtime.DiskConfig{Policy: runtime.FsyncNever}

	w, err := runtime.OpenDiskWAL(dir, walTestN, cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	live := connFactory(seed)()
	feedDisk(t, w, live, st.Updates, 0)
	stale, err := os.ReadFile(runtime.LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(live); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := os.WriteFile(runtime.LogPath(dir), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := runtime.OpenDiskWAL(dir, walTestN, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if got := w2.ReplayUpdates(); got != 0 {
		t.Fatalf("superseded log replayed %d updates, want 0", got)
	}
	if got := w2.DurableUpdates(); got != len(st.Updates) {
		t.Fatalf("durable position %d, want %d", got, len(st.Updates))
	}
	if w2.LogBytes() != 0 {
		t.Fatalf("discarded log still reports %d bytes", w2.LogBytes())
	}
	if w2.SnapshotBytes() == 0 {
		t.Fatal("snapshot bytes missing after reopen")
	}
}

// TestDiskWALPersistsAcrossGenerations runs kill/reopen cycles with
// snapshots and compaction interleaved, asserting the re-feed contract at
// every step — the disk analogue of TestRecoveryBitIdentity.
func TestDiskWALPersistsAcrossGenerations(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		st := testStream(seed)
		dir := t.TempDir()
		cfg := runtime.DiskConfig{Policy: runtime.FsyncInterval, Every: 16}

		pos := 0
		cycle := 0
		for pos < len(st.Updates) {
			w, err := runtime.OpenDiskWAL(dir, walTestN, cfg)
			if err != nil {
				t.Fatalf("seed %d cycle %d: open: %v", seed, cycle, err)
			}
			sk, rec, err := w.Recover(connFactory(seed))
			if err != nil {
				t.Fatalf("seed %d cycle %d: recover: %v", seed, cycle, err)
			}
			if rec != pos {
				t.Fatalf("seed %d cycle %d: recovered %d, want %d", seed, cycle, rec, pos)
			}
			end := min(pos+137+int(seed)*31, len(st.Updates))
			if err := w.Append(st.Updates[pos:end]); err != nil {
				t.Fatalf("append: %v", err)
			}
			sk.UpdateBatch(st.Updates[pos:end])
			pos = end
			switch cycle % 3 {
			case 1:
				if err := w.Snapshot(sk); err != nil {
					t.Fatalf("snapshot: %v", err)
				}
			case 2:
				if err := w.Compact(); err != nil {
					t.Fatalf("compact: %v", err)
				}
			}
			cycle++ // kill: drop w without Close
		}

		w, err := runtime.OpenDiskWAL(dir, walTestN, cfg)
		if err != nil {
			t.Fatalf("seed %d: final open: %v", seed, err)
		}
		sk, rec, err := w.Recover(connFactory(seed))
		if err != nil {
			t.Fatalf("seed %d: final recover: %v", seed, err)
		}
		w.Close()
		if rec != len(st.Updates) {
			t.Fatalf("seed %d: final position %d, want %d", seed, rec, len(st.Updates))
		}
		ref := connFactory(seed)()
		ref.UpdateBatch(st.Updates)
		if !bytes.Equal(compactOf(t, sk), compactOf(t, ref)) {
			t.Fatalf("seed %d: disk recovery not bit-identical after %d kill cycles", seed, cycle)
		}
	}
}

// TestDiskWALRejectsForeignFiles pins the header checks: wrong magic and
// mismatched vertex count must fail at open, not corrupt a recovery.
func TestDiskWALRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	w, err := runtime.OpenDiskWAL(dir, walTestN, runtime.DiskConfig{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := w.Append([]stream.Update{{U: 1, V: 2, Delta: 1}}); err != nil {
		t.Fatalf("append: %v", err)
	}
	w.Close()

	if _, err := runtime.OpenDiskWAL(dir, walTestN+1, runtime.DiskConfig{}); err == nil {
		t.Fatal("open with mismatched n succeeded")
	}
	if err := os.WriteFile(runtime.LogPath(dir), []byte("not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.OpenDiskWAL(dir, walTestN, runtime.DiskConfig{}); err == nil {
		t.Fatal("open with clobbered log magic succeeded")
	}
}

// TestFsyncPolicyRoundTrip pins the flag surface.
func TestFsyncPolicyRoundTrip(t *testing.T) {
	for _, p := range []runtime.FsyncPolicy{runtime.FsyncAlways, runtime.FsyncInterval, runtime.FsyncNever} {
		got, err := runtime.ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v, err %v", p, got, err)
		}
	}
	if _, err := runtime.ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

// tearFile truncates the last n bytes of a file, header or not — unlike
// runtime.TearLog, which stops at the log header.
func tearFile(t *testing.T, path string, n int) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	sz := fi.Size() - int64(n)
	if sz < 0 {
		sz = 0
	}
	if err := os.Truncate(path, sz); err != nil {
		t.Fatal(err)
	}
}

// TestDiskWALInstallSnapshot pins the replica sync-install primitive: a
// sealed payload pulled from a peer replaces the durable state wholesale
// at the peer's position, the local log is discarded, and both the open
// handle and a SIGKILL-style reopen recover the installed state exactly.
func TestDiskWALInstallSnapshot(t *testing.T) {
	seed := uint64(17)
	st := testStream(seed)
	half := len(st.Updates) / 2

	// The "primary": an uninterrupted run over the full stream.
	primary := connFactory(seed)()
	primary.UpdateBatch(st.Updates)
	payload := compactOf(t, primary)
	sealed := wire.Seal(payload)

	// The "follower": a divergent local prefix that the install discards.
	dir := t.TempDir()
	w, err := runtime.OpenDiskWAL(dir, walTestN, runtime.DiskConfig{Policy: runtime.FsyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	live := connFactory(seed)()
	feedDisk(t, w, live, st.Updates[:half], 0)

	// A corrupt payload must be rejected before anything is dropped.
	bad := append([]byte(nil), sealed...)
	bad[len(bad)/2] ^= 0x40
	if err := w.InstallSnapshot(bad, len(st.Updates)); err == nil {
		t.Fatal("InstallSnapshot accepted a corrupt envelope")
	}
	if got := w.DurableUpdates(); got != half {
		t.Fatalf("rejected install moved the position: %d, want %d", got, half)
	}

	if err := w.InstallSnapshot(sealed, len(st.Updates)); err != nil {
		t.Fatalf("install: %v", err)
	}
	if got := w.DurableUpdates(); got != len(st.Updates) {
		t.Fatalf("position after install %d, want %d", got, len(st.Updates))
	}
	if w.ReplayUpdates() != 0 || w.LogBytes() != 0 {
		t.Fatalf("install left log state: replay %d, log %d bytes", w.ReplayUpdates(), w.LogBytes())
	}
	sk, pos, err := w.Recover(connFactory(seed))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if pos != len(st.Updates) || !bytes.Equal(compactOf(t, sk), payload) {
		t.Fatalf("live recover diverged: pos %d", pos)
	}

	// SIGKILL: reopen from the files alone, append past the install, and
	// require the timeline to continue exactly from the installed position.
	w2, err := runtime.OpenDiskWAL(dir, walTestN, runtime.DiskConfig{Policy: runtime.FsyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	extra := testStream(seed ^ 0xBEEF).Updates[:120]
	if err := w2.Append(extra); err != nil {
		t.Fatalf("append after install: %v", err)
	}
	sk2, pos2, err := w2.Recover(connFactory(seed))
	if err != nil {
		t.Fatalf("recover after append: %v", err)
	}
	if pos2 != len(st.Updates)+len(extra) {
		t.Fatalf("position after install+append %d, want %d", pos2, len(st.Updates)+len(extra))
	}
	ref := connFactory(seed)()
	ref.UpdateBatch(st.Updates)
	ref.UpdateBatch(extra)
	if !bytes.Equal(compactOf(t, sk2), compactOf(t, ref)) {
		t.Fatal("install + append + recover not bit-identical to uninterrupted run")
	}
}
