package runtime

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// recSketch is a Sketch that records every update replayed into it, in
// order, so a recovery can be compared batch for batch.
type recSketch struct{ ups []stream.Update }

func (r *recSketch) UpdateBatch(ups []stream.Update) { r.ups = append(r.ups, ups...) }

func (r *recSketch) MarshalBinaryCompact() ([]byte, error) {
	return stream.AppendBatch(nil, r.ups), nil
}

func (r *recSketch) MergeBytes(data []byte) error {
	ups, _, err := stream.DecodeBatch(data)
	r.ups = append(r.ups, ups...)
	return err
}

// TestDiskWALAppendWriteError: an append whose write fails moves nothing —
// not the position the writer acks with, not the mirror, not the file — so
// the next good append lands on a clean boundary and a reopen recovers
// exactly the acked batches.
func TestDiskWALAppendWriteError(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenDiskWAL(dir, 16, DiskConfig{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	a := []stream.Update{{U: 1, V: 2, Delta: 1}, {U: 3, V: 4, Delta: 2}}
	lost := []stream.Update{{U: 5, V: 6, Delta: 1}}
	c := []stream.Update{{U: 7, V: 8, Delta: -1}, {U: 1, V: 9, Delta: 1}, {U: 2, V: 3, Delta: 4}}
	if err := w.Append(a); err != nil {
		t.Fatal(err)
	}

	good := w.logF
	ro, err := os.Open(LogPath(dir)) // read-only: every write fails
	if err != nil {
		t.Fatal(err)
	}
	w.logF = ro
	if err := w.Append(lost); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	if got := w.DurableUpdates(); got != len(a) {
		t.Fatalf("DurableUpdates = %d after a failed append, want %d", got, len(a))
	}
	ro.Close()
	w.logF = good
	if err := w.VerifyDisk(); err != nil {
		t.Fatalf("file and mirror diverged after a failed append: %v", err)
	}

	if err := w.Append(c); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenDiskWAL(dir, 16, DiskConfig{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	sk, pos, err := w2.Recover(func() Sketch { return &recSketch{} })
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]stream.Update(nil), a...), c...)
	if pos != len(want) || !reflect.DeepEqual(sk.(*recSketch).ups, want) {
		t.Fatalf("recovered %v at %d, want %v at %d", sk.(*recSketch).ups, pos, want, len(want))
	}
}

// TestDiskWALInstallSnapshotError: an install that cannot be written moves
// nothing, and neither does one whose envelope is corrupt (it is refused
// before anything is written).
func TestDiskWALInstallSnapshotError(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenDiskWAL(dir, 16, DiskConfig{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]stream.Update{{U: 1, V: 2, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	type mirror struct{ pos, snapPos, replay, logBytes, snapBytes int }
	read := func() mirror {
		return mirror{w.DurableUpdates(), w.SnapshotUpdates(), w.ReplayUpdates(), w.LogBytes(), w.SnapshotBytes()}
	}
	before := read()

	sealed := wire.Seal(stream.AppendBatch(nil, []stream.Update{{U: 4, V: 5, Delta: 1}}))
	bad := append([]byte(nil), sealed...)
	bad[len(bad)-1] ^= 1
	if err := w.InstallSnapshot(bad, 40); err == nil {
		t.Fatal("install of a corrupt envelope succeeded")
	}
	if _, err := os.Stat(SnapshotPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("a refused install wrote a snapshot file (stat err %v)", err)
	}

	// A non-empty directory where the snapshot goes: the rename fails,
	// whatever the process's privileges.
	if err := os.MkdirAll(filepath.Join(SnapshotPath(dir), "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.InstallSnapshot(sealed, 40); err == nil {
		t.Fatal("install over an unrenameable path succeeded")
	}
	if got := read(); got != before {
		t.Fatalf("mirror moved on a failed install: %+v, want %+v", got, before)
	}
}

// failDirSync makes every directory fsync fail until the test ends.
func failDirSync(t *testing.T) {
	orig := syncDir
	syncDir = func(string) error { return errors.New("injected directory fsync failure") }
	t.Cleanup(func() { syncDir = orig })
}

// recoverUpdates reopens the WAL in dir and returns what it replays, and
// the position it reports.
func recoverUpdates(t *testing.T, dir string) ([]stream.Update, int) {
	t.Helper()
	w, err := OpenDiskWAL(dir, 16, DiskConfig{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sk, pos, err := w.Recover(func() Sketch { return &recSketch{} })
	if err != nil {
		t.Fatal(err)
	}
	return sk.(*recSketch).ups, pos
}

// TestDiskWALDirSyncError: a directory fsync that fails after a rename
// does not stop the step half way. Snapshot and Compact report it as
// ErrTookEffect with the mirror moved and the append handle on the new
// file, so later appends land where a reopen reads them, and the reopen
// recovers every acked batch.
func TestDiskWALDirSyncError(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenDiskWAL(dir, 16, DiskConfig{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var acked []stream.Update
	ack := func(ups ...stream.Update) {
		t.Helper()
		if err := w.Append(ups); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, ups...)
	}
	ack(stream.Update{U: 1, V: 2, Delta: 1}, stream.Update{U: 3, V: 4, Delta: 2})
	failDirSync(t)

	if err := w.Snapshot(&recSketch{ups: append([]stream.Update(nil), acked...)}); !errors.Is(err, ErrTookEffect) {
		t.Fatalf("snapshot with a failing directory fsync: err = %v, want ErrTookEffect", err)
	}
	if w.SnapshotUpdates() != len(acked) || w.LogBytes() != 0 {
		t.Fatalf("mirror did not follow the published snapshot: covers %d, log %d bytes", w.SnapshotUpdates(), w.LogBytes())
	}
	if err := w.VerifyDisk(); err != nil {
		t.Fatalf("after snapshot: %v", err)
	}
	ack(stream.Update{U: 5, V: 6, Delta: 1})
	ack(stream.Update{U: 5, V: 6, Delta: -1}, stream.Update{U: 7, V: 8, Delta: 3})

	if err := w.Compact(); !errors.Is(err, ErrTookEffect) {
		t.Fatalf("compact with a failing directory fsync: err = %v, want ErrTookEffect", err)
	}
	if err := w.VerifyDisk(); err != nil {
		t.Fatalf("after compact: %v", err)
	}
	ack(stream.Update{U: 9, V: 10, Delta: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, pos := recoverUpdates(t, dir)
	co := func(ups []stream.Update) []stream.Update {
		return (&stream.Stream{N: 16, Updates: ups}).Coalesce().Updates
	}
	if pos != len(acked) || !reflect.DeepEqual(co(got), co(acked)) {
		t.Fatalf("recovered %v at %d, want the net of %v at %d", got, pos, acked, len(acked))
	}
}

// TestDiskWALLogResetError: a snapshot whose log reset fails after the
// snapshot file is published. The snapshot is the WAL's state from its
// rename on, so the mirror follows it and the error is ErrTookEffect. No
// append may land in the superseded log, which Open discards: appends fail
// while the reset cannot run, and the first one after it can redoes the
// reset, so a reopen recovers exactly the acked batches.
func TestDiskWALLogResetError(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenDiskWAL(dir, 16, DiskConfig{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	a := []stream.Update{{U: 1, V: 2, Delta: 1}, {U: 3, V: 4, Delta: 2}}
	lost := []stream.Update{{U: 5, V: 6, Delta: 1}}
	c := []stream.Update{{U: 7, V: 8, Delta: -1}, {U: 1, V: 9, Delta: 1}}
	if err := w.Append(a); err != nil {
		t.Fatal(err)
	}

	// A non-empty directory where the log's temp file goes: the log reset
	// fails, the snapshot (which has its own temp file) does not.
	blocker := LogPath(dir) + ".tmp"
	if err := os.MkdirAll(filepath.Join(blocker, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(&recSketch{ups: a}); !errors.Is(err, ErrTookEffect) {
		t.Fatalf("snapshot whose log reset fails: err = %v, want ErrTookEffect", err)
	}
	if w.SnapshotUpdates() != len(a) || w.DurableUpdates() != len(a) || w.LogBytes() != 0 {
		t.Fatalf("mirror did not follow the published snapshot: covers %d, at %d, log %d bytes",
			w.SnapshotUpdates(), w.DurableUpdates(), w.LogBytes())
	}
	if err := w.Append(lost); err == nil {
		t.Fatal("append succeeded while the log could not be reset")
	}
	if got := w.DurableUpdates(); got != len(a) {
		t.Fatalf("DurableUpdates = %d after a failed append, want %d", got, len(a))
	}

	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(c); err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyDisk(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]stream.Update(nil), a...), c...)
	if got, pos := recoverUpdates(t, dir); pos != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v at %d, want %v at %d", got, pos, want, len(want))
	}
}

// TestDiskWALCompactWriteError: a compaction whose rewrite cannot be
// written leaves the mirror as it was, so disk and mirror still agree and
// the scrubber has nothing to report.
func TestDiskWALCompactWriteError(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenDiskWAL(dir, 16, DiskConfig{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, ups := range [][]stream.Update{{{U: 1, V: 2, Delta: 1}}, {{U: 1, V: 2, Delta: -1}, {U: 3, V: 4, Delta: 1}}} {
		if err := w.Append(ups); err != nil {
			t.Fatal(err)
		}
	}
	logBytes := w.LogBytes()
	if err := os.MkdirAll(filepath.Join(LogPath(dir)+".tmp", "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err == nil {
		t.Fatal("compact with an unwritable rewrite succeeded")
	}
	if w.LogBytes() != logBytes || w.DurableUpdates() != 3 {
		t.Fatalf("mirror moved on a failed compact: log %d bytes at %d, want %d at 3", w.LogBytes(), w.DurableUpdates(), logBytes)
	}
	if err := w.VerifyDisk(); err != nil {
		t.Fatalf("disk and mirror diverged after a failed compact: %v", err)
	}
}

// TestDiskWALSuffix: the suffix reader returns exactly the updates appended
// after a record boundary, survives a reopen, and refuses every position it
// cannot serve exactly: inside a record, before the snapshot, past the end,
// and before a compacted record.
func TestDiskWALSuffix(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenDiskWAL(dir, 16, DiskConfig{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	a := []stream.Update{{U: 1, V: 2, Delta: 1}, {U: 3, V: 4, Delta: 2}}
	b := []stream.Update{{U: 1, V: 2, Delta: -1}, {U: 5, V: 6, Delta: 1}, {U: 7, V: 8, Delta: -3}}
	c := []stream.Update{{U: 9, V: 10, Delta: 1}}
	for _, ups := range [][]stream.Update{a, b, c} {
		if err := w.Append(ups); err != nil {
			t.Fatal(err)
		}
	}
	cat := func(parts ...[]stream.Update) []stream.Update {
		var out []stream.Update
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	exact := func(w *DiskWAL, from int, want []stream.Update) {
		t.Helper()
		got, err := w.Suffix(from)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Suffix(%d) = %v, %v; want %v", from, got, err, want)
		}
	}
	gone := func(w *DiskWAL, from int) {
		t.Helper()
		if got, err := w.Suffix(from); !errors.Is(err, ErrNoSuffix) {
			t.Fatalf("Suffix(%d) = %v, %v; want ErrNoSuffix", from, got, err)
		}
	}
	exact(w, 0, cat(a, b, c))
	exact(w, 2, cat(b, c))
	exact(w, 5, c)
	exact(w, 6, nil)
	gone(w, 1)
	gone(w, 4)
	gone(w, 7)
	gone(w, -1)

	// A reopen replays the same records, so the boundaries survive it.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = OpenDiskWAL(dir, 16, DiskConfig{Policy: FsyncNever}); err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close() }()
	exact(w, 2, cat(b, c))

	// The snapshot covers [0, 6): only positions from 6 on have a suffix.
	if err := w.Snapshot(&recSketch{ups: cat(a, b, c)}); err != nil {
		t.Fatal(err)
	}
	d := []stream.Update{{U: 3, V: 4, Delta: -2}, {U: 11, V: 12, Delta: 1}}
	e := []stream.Update{{U: 11, V: 12, Delta: -1}}
	for _, ups := range [][]stream.Update{d, e} {
		if err := w.Append(ups); err != nil {
			t.Fatal(err)
		}
	}
	gone(w, 2)
	gone(w, 5)
	exact(w, 6, cat(d, e))
	exact(w, 8, e)

	// Compaction folds d and e into one record of one update spanning three
	// positions: nothing from 6 on can be served, but the end still can.
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	gone(w, 6)
	gone(w, 8)
	exact(w, 9, nil)
	if err := w.Append(c); err != nil {
		t.Fatal(err)
	}
	exact(w, 9, c)
	gone(w, 6)
}
