package runtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// DiskWAL is the write-ahead log: the framed log and the sealed snapshot
// live in files, so a SIGKILLed process recovers by reopening its data
// directory. An in-memory mirror holds the replay and compaction logic;
// DiskWAL keeps the files in step with it.
//
// On-disk layout (directory per WAL):
//
//	wal.log       24-byte header (magic, generation, n) + framed records
//	              appended exactly as the in-memory mirror frames them
//	snapshot.bin  32-byte header (magic, generation, n, covered updates)
//	              + the sealed compact sketch payload
//
// Both files are replaced atomically (write tmp, fsync, rename, fsync
// dir), and the GENERATION number makes the snapshot/log pair crash-safe
// without a cross-file transaction: taking a snapshot first publishes
// snapshot.bin at generation g+1 (covering every logged update), then
// resets wal.log to an empty generation-g+1 log. A crash between the two
// leaves a generation-g log whose records are all covered by the
// generation-g+1 snapshot; Open sees gen(log) < gen(snapshot) and discards
// the log, so no update is ever replayed twice. A torn final record (crash
// mid-append) is detected by the CRC framing and truncated away; the lost
// suffix is exactly what the server never acknowledged.
//
// Fsync policy decides when appends reach the platter. Note the policy
// only matters for machine-level failures (power loss): a SIGKILLed
// process loses nothing under any policy, because every append is a
// completed write(2) into the OS page cache.
type FsyncPolicy int

const (
	// FsyncAlways syncs the log after every append — maximum durability,
	// one fsync per acknowledged batch.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs every Every appends (and on snapshot/close):
	// bounded data loss under power failure, amortized fsync cost.
	FsyncInterval
	// FsyncNever leaves flushing to the OS — survives process crashes,
	// not power loss.
	FsyncNever
)

// String names the policy for JSON rows and flag round-trips.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy inverts String (flag surface for `gsketch serve`).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want always, interval, never)", s)
}

// DiskConfig parameterizes a DiskWAL.
type DiskConfig struct {
	Policy FsyncPolicy
	// Every is the append count between syncs under FsyncInterval
	// (default 64).
	Every int
}

var (
	logMagic  = [8]byte{'G', 'S', 'K', 'W', 'A', 'L', '1', 0}
	snapMagic = [8]byte{'G', 'S', 'K', 'S', 'N', 'P', '1', 0}
)

const (
	logHeaderSize  = 8 + 8 + 8     // magic, generation, n
	snapHeaderSize = 8 + 8 + 8 + 8 // magic, generation, n, covered updates
)

// LogPath returns the log file path inside a WAL directory (exported so
// chaos harnesses can tear the tail of a killed server's log).
func LogPath(dir string) string { return filepath.Join(dir, "wal.log") }

// SnapshotPath returns the snapshot file path inside a WAL directory.
func SnapshotPath(dir string) string { return filepath.Join(dir, "snapshot.bin") }

// TearLog cuts up to n bytes off the tail of the log in dir, never into its
// header: the partial final write a crash inside write(2) leaves behind.
// Chaos harnesses call it on a killed server's tenant directory.
func TearLog(dir string, n int) error {
	fi, err := os.Stat(LogPath(dir))
	if err != nil {
		return err
	}
	if cut := min(int64(n), fi.Size()-logHeaderSize); cut > 0 {
		return os.Truncate(LogPath(dir), fi.Size()-cut)
	}
	return nil
}

// DiskWAL is a disk-backed write-ahead log. Not safe for concurrent use:
// the service gives each tenant a single writer goroutine, which is the
// only code that touches the WAL.
type DiskWAL struct {
	mem mirror // replay, compaction, and counters live here
	dir string
	cfg DiskConfig
	gen uint64

	logF     *os.File
	unsynced int
}

// OpenDiskWAL opens (or creates) the WAL in dir for streams on n vertices
// and performs torn-tail-tolerant recovery of its durable state: parse the
// snapshot, discard a log superseded by it, replay the log's valid record
// prefix, and truncate any torn tail so the next append lands on a clean
// boundary.
func OpenDiskWAL(dir string, n int, cfg DiskConfig) (*DiskWAL, error) {
	if cfg.Every <= 0 {
		cfg.Every = 64
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// Stray temp files are debris from a crash mid-replace: the rename
	// never happened, so the live files are authoritative.
	for _, p := range []string{LogPath(dir) + ".tmp", SnapshotPath(dir) + ".tmp"} {
		os.Remove(p)
	}
	w := &DiskWAL{mem: mirror{n: n}, dir: dir, cfg: cfg}

	snapGen, err := w.loadSnapshot(n)
	if err != nil {
		return nil, err
	}
	if err := w.loadLog(n, snapGen); err != nil {
		return nil, err
	}
	return w, nil
}

// loadSnapshot parses snapshot.bin into the mirror, returning its
// generation (0 when no snapshot exists).
func (w *DiskWAL) loadSnapshot(n int) (uint64, error) {
	data, err := os.ReadFile(SnapshotPath(w.dir))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: snapshot: %w", err)
	}
	if len(data) < snapHeaderSize || [8]byte(data[:8]) != snapMagic {
		return 0, fmt.Errorf("wal: snapshot %s: bad header: %w", SnapshotPath(w.dir), ErrWALCorrupt)
	}
	gen := binary.LittleEndian.Uint64(data[8:])
	if got := binary.LittleEndian.Uint64(data[16:]); got != uint64(n) {
		return 0, fmt.Errorf("wal: snapshot n = %d, want %d", got, n)
	}
	covered := binary.LittleEndian.Uint64(data[24:])
	sealed := data[snapHeaderSize:]
	// Validate the envelope now so a corrupt snapshot fails at open, not at
	// first query after hours of appends. The file was written atomically
	// with a then-valid envelope, so a failure here is rot at rest.
	if _, _, err := wire.Open(sealed); err != nil {
		return 0, fmt.Errorf("wal: snapshot envelope %s: %v: %w", SnapshotPath(w.dir), err, ErrWALCorrupt)
	}
	// The mirror keeps the read buffer itself: nothing else holds it.
	w.mem.snapshot = sealed
	w.mem.snapPos = int(covered)
	w.mem.pos = int(covered)
	w.gen = gen
	return gen, nil
}

// loadLog parses wal.log, discards it when superseded by the snapshot,
// replays its valid record prefix into the mirror, and truncates any torn
// tail. Leaves w.logF positioned for appends.
func (w *DiskWAL) loadLog(n int, snapGen uint64) error {
	path := LogPath(w.dir)
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err) || (err == nil && len(data) == 0):
		return w.resetLogFile(snapGen)
	case err != nil:
		return fmt.Errorf("wal: log: %w", err)
	}
	if len(data) < logHeaderSize || [8]byte(data[:8]) != logMagic {
		return fmt.Errorf("wal: log %s: bad header: %w", path, ErrWALCorrupt)
	}
	logGen := binary.LittleEndian.Uint64(data[8:])
	if got := binary.LittleEndian.Uint64(data[16:]); got != uint64(n) {
		return fmt.Errorf("wal: log n = %d, want %d", got, n)
	}
	if logGen > w.gen {
		return fmt.Errorf("wal: log generation %d ahead of snapshot %d", logGen, w.gen)
	}
	if logGen < snapGen {
		// The crash window between snapshot publish and log reset: every
		// record here is covered by the snapshot. Replaying it would
		// double-count, so the log is discarded wholesale.
		return w.resetLogFile(snapGen)
	}
	// Walk the framed records. The valid prefix is durable; a SHORT final
	// record is a torn tail (crash mid-append) and is truncated away, but a
	// full-length record that fails its checksum is bit-rot in acknowledged
	// state — refusing to open is what keeps a rotted replica from serving
	// (the service sidelines the files and repairs from a peer).
	body := data[logHeaderSize:]
	valid, count, endPos := 0, 0, w.mem.snapPos
	for rest := body; len(rest) > 0; {
		ups, pos, next, status := decodeBatch(rest)
		if status == recCorrupt {
			return fmt.Errorf("wal: log %s at offset %d: %w", path, logHeaderSize+valid, ErrWALCorrupt)
		}
		if status == recTorn {
			break
		}
		count += len(ups)
		endPos = pos
		valid = len(body) - len(next)
		rest = next
	}
	// As with the snapshot, the mirror keeps the read buffer; appends may
	// overwrite the torn tail past valid, which the file loses too.
	w.mem.log = body[:valid]
	w.mem.logUpdates = count
	w.mem.pos = endPos
	if valid < len(body) {
		if err := os.Truncate(path, int64(logHeaderSize+valid)); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: log: %w", err)
	}
	w.logF = f
	return nil
}

// logHeader builds the 24-byte log file header for a generation.
func (w *DiskWAL) logHeader(gen uint64) []byte {
	hdr := make([]byte, logHeaderSize)
	copy(hdr, logMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], gen)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(w.mem.n))
	return hdr
}

// resetLogFile atomically replaces wal.log with an empty generation-gen
// log (plus optional records) and repoints the append handle at it.
//
// A failed rename changes nothing. Once the rename has happened the old
// handle names a replaced file, so it is closed before anything else can
// fail; if the new file cannot be opened the handle is left nil, and the
// next Append rewrites the log from the mirror. A failed directory fsync
// is returned last, wrapped in ErrTookEffect, with the handle already on
// the new file.
func (w *DiskWAL) resetLogFile(gen uint64, records ...[]byte) error {
	content := w.logHeader(gen)
	for _, r := range records {
		content = append(content, r...)
	}
	if err := writeFileAtomic(LogPath(w.dir), content); err != nil {
		return fmt.Errorf("wal: reset log: %w", err)
	}
	w.dropLog()
	f, err := os.OpenFile(LogPath(w.dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reset log: %w", err)
	}
	w.logF = f
	w.unsynced = 0
	if err := syncDir(w.dir); err != nil {
		return fmt.Errorf("wal: reset log: %w: %w", ErrTookEffect, err)
	}
	return nil
}

// dropLog closes the append handle and forgets it.
func (w *DiskWAL) dropLog() {
	if w.logF != nil {
		w.logF.Close()
		w.logF = nil
	}
}

// Append frames one update batch, writes it to the log file, applies the
// fsync policy, and only then moves the in-memory mirror, so the position
// it reports never runs ahead of the file. The write(2) completing is what
// makes the batch survive a SIGKILL; the fsync (policy permitting) is what
// makes it survive power loss.
//
// A failed write or fsync changes nothing: the file is cut back to its last
// whole record (a short write must not leave a torn frame for later
// records to land behind), the mirror and DurableUpdates stay where they
// were, and the error is returned.
//
// With no append handle (a log reset did not finish, see resetLogFile and
// publishSnapshot) Append first rewrites wal.log from the mirror, so the
// batch lands in the file a reopen reads, and fails if it cannot.
func (w *DiskWAL) Append(ups []stream.Update) error {
	if len(ups) == 0 {
		return nil
	}
	if w.logF == nil {
		if err := w.resetLogFile(w.gen, w.mem.log); err != nil {
			return fmt.Errorf("wal: append: %w", err)
		}
	}
	rec := w.mem.frame(ups, w.mem.pos+len(ups))
	sync := w.cfg.Policy == FsyncAlways || (w.cfg.Policy == FsyncInterval && w.unsynced+1 >= w.cfg.Every)
	_, err := w.logF.Write(rec)
	if err == nil && sync {
		err = w.logF.Sync()
	}
	if err != nil {
		if terr := os.Truncate(LogPath(w.dir), int64(logHeaderSize+len(w.mem.log))); terr != nil {
			err = errors.Join(err, terr)
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	w.mem.pushRecord(rec, len(ups))
	w.unsynced++
	if sync {
		w.unsynced = 0
	}
	return nil
}

// Snapshot captures the sketch's sealed compact payload at generation
// gen+1, publishes it atomically, then resets the log. The sketch passed
// in must reflect exactly the updates appended so far (the single-writer
// loop guarantees it).
func (w *DiskWAL) Snapshot(sk Sketch) error {
	payload, err := sk.MarshalBinaryCompact()
	if err != nil {
		return fmt.Errorf("wal: snapshot marshal: %w", err)
	}
	if err := w.publishSnapshot(wire.Seal(payload), w.mem.pos); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	return nil
}

// publishSnapshot writes sealed as the generation gen+1 snapshot covering
// stream position covered, resets the log to an empty generation gen+1
// log, and moves gen and the mirror to match. The mirror keeps sealed.
//
// The snapshot's rename is the commit point. If it fails nothing has
// changed. Once it has happened the snapshot is the WAL's state, so the
// step is carried through whatever fails next: gen and the mirror move at
// once, the log reset runs even if the directory fsync failed (an append
// handle left on the superseded log would write batches that Open
// discards), and a later failure is returned wrapped in ErrTookEffect. If
// the log reset itself fails, the handle is dropped and the next Append
// retries the reset before it writes.
func (w *DiskWAL) publishSnapshot(sealed []byte, covered int) error {
	gen := w.gen + 1
	hdr := make([]byte, snapHeaderSize, snapHeaderSize+len(sealed))
	copy(hdr, snapMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], gen)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(w.mem.n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(covered))
	if err := writeFileAtomic(SnapshotPath(w.dir), append(hdr, sealed...)); err != nil {
		return err
	}
	w.gen = gen
	w.mem.installSnapshot(sealed, covered)
	dirErr := syncDir(w.dir)
	// Crash boundary: snapshot (gen+1) published, log still at gen. Open
	// resolves it by discarding the superseded log — no double replay.
	resetErr := w.resetLogFile(gen)
	if resetErr != nil && !errors.Is(resetErr, ErrTookEffect) {
		w.dropLog()
	}
	if dirErr != nil || resetErr != nil {
		return fmt.Errorf("%w: %w", ErrTookEffect, errors.Join(dirErr, resetErr))
	}
	return nil
}

// InstallSnapshot durably replaces the WAL's state with a sealed compact
// payload pulled from a replica peer, covering stream position pos. The
// payload is a complete state, so the local log is discarded and the
// position may move backward. The envelope is
// validated before anything is written, and the mirror moves only after
// the files have: the snapshot is published at generation gen+1 before the
// log is reset, so a crash between the two is resolved by Open exactly
// like the ordinary snapshot crash window.
func (w *DiskWAL) InstallSnapshot(sealed []byte, pos int) error {
	if _, _, err := wire.Open(sealed); err != nil {
		return fmt.Errorf("wal: install snapshot envelope: %w", err)
	}
	if err := w.publishSnapshot(bytes.Clone(sealed), pos); err != nil {
		return fmt.Errorf("wal: install snapshot: %w", err)
	}
	return nil
}

// Compact rewrites the log as one coalesced batch (bit-neutral by
// linearity) and atomically replaces the file, keeping the generation.
// The file is written first and the mirror follows once it is in place,
// so a failed rewrite leaves both as they were.
func (w *DiskWAL) Compact() error {
	rec, n, endPos, ok := w.mem.compaction()
	if !ok {
		return nil
	}
	err := w.resetLogFile(w.gen, rec)
	if err == nil || errors.Is(err, ErrTookEffect) {
		w.mem.setLog(rec, n, endPos)
	}
	return err
}

// Recover rebuilds a sketch from the mirrored durable state and returns it
// with the raw stream position it reflects: the exact re-feed point.
func (w *DiskWAL) Recover(factory Factory) (Sketch, int, error) {
	return w.mem.recover(factory)
}

// Suffix returns the updates appended since stream position from, exactly
// as they were appended, so that a sketch at from that applies them lands
// on DurableUpdates(). It reads the mirror, which holds only bytes already
// written to the log file. The error wraps ErrNoSuffix when no such list
// exists: from is before the snapshot or past the end of the log, from is
// not a record boundary, or a compacted record (one replaying fewer
// updates than the positions it spans) lies after from.
func (w *DiskWAL) Suffix(from int) ([]stream.Update, error) { return w.mem.suffix(from) }

// VerifyDisk is the scrubber's at-rest integrity check: it re-reads
// snapshot.bin and wal.log from disk and compares them byte-for-byte
// against the in-memory mirror (which wrote them), re-validating the
// snapshot envelope along the way. Any divergence — a flipped bit at rest,
// a truncated file, content from a different generation — returns an error
// wrapping ErrWALCorrupt. The check is read-only; deciding to quarantine
// and repair is the caller's job. Like every other DiskWAL method it must
// run on the tenant's single writer goroutine, so no append races the
// re-read.
func (w *DiskWAL) VerifyDisk() error {
	snapPath := SnapshotPath(w.dir)
	data, err := os.ReadFile(snapPath)
	switch {
	case os.IsNotExist(err):
		if w.mem.snapshot != nil {
			return fmt.Errorf("wal: verify: snapshot %s missing: %w", snapPath, ErrWALCorrupt)
		}
	case err != nil:
		return fmt.Errorf("wal: verify: %w", err)
	default:
		if len(data) < snapHeaderSize || [8]byte(data[:8]) != snapMagic ||
			binary.LittleEndian.Uint64(data[8:]) != w.gen ||
			binary.LittleEndian.Uint64(data[16:]) != uint64(w.mem.n) ||
			binary.LittleEndian.Uint64(data[24:]) != uint64(w.mem.snapPos) {
			return fmt.Errorf("wal: verify: snapshot %s header diverged: %w", snapPath, ErrWALCorrupt)
		}
		sealed := data[snapHeaderSize:]
		if !bytes.Equal(sealed, w.mem.snapshot) {
			return fmt.Errorf("wal: verify: snapshot %s payload diverged from mirror: %w", snapPath, ErrWALCorrupt)
		}
		if len(sealed) > 0 {
			if _, _, err := wire.Open(sealed); err != nil {
				return fmt.Errorf("wal: verify: snapshot %s envelope: %v: %w", snapPath, err, ErrWALCorrupt)
			}
		}
	}

	logPath := LogPath(w.dir)
	data, err = os.ReadFile(logPath)
	switch {
	case os.IsNotExist(err):
		if len(w.mem.log) > 0 {
			return fmt.Errorf("wal: verify: log %s missing: %w", logPath, ErrWALCorrupt)
		}
		return nil
	case err != nil:
		return fmt.Errorf("wal: verify: %w", err)
	}
	if len(data) < logHeaderSize || [8]byte(data[:8]) != logMagic ||
		binary.LittleEndian.Uint64(data[8:]) != w.gen ||
		binary.LittleEndian.Uint64(data[16:]) != uint64(w.mem.n) {
		return fmt.Errorf("wal: verify: log %s header diverged: %w", logPath, ErrWALCorrupt)
	}
	if !bytes.Equal(data[logHeaderSize:], w.mem.log) {
		return fmt.Errorf("wal: verify: log %s records diverged from mirror: %w", logPath, ErrWALCorrupt)
	}
	return nil
}

// DurableUpdates reports the raw stream position the durable state
// reflects — the exact position an ingest driver re-feeds from after a
// crash.
func (w *DiskWAL) DurableUpdates() int { return w.mem.pos }

// ReplayUpdates reports how many updates log replay applies at recovery
// (the recovery cost; less than the position once the log is compacted).
func (w *DiskWAL) ReplayUpdates() int { return w.mem.logUpdates }

// LogBytes reports the framed log-tail bytes a recovery replays.
func (w *DiskWAL) LogBytes() int { return len(w.mem.log) }

// SnapshotBytes reports the sealed snapshot payload bytes.
func (w *DiskWAL) SnapshotBytes() int { return len(w.mem.snapshot) }

// SnapshotUpdates reports how many updates the snapshot covers.
func (w *DiskWAL) SnapshotUpdates() int { return w.mem.snapPos }

// Close syncs and releases the log handle. A killed process never calls
// Close — that is the point; Open recovers without it.
func (w *DiskWAL) Close() error {
	if w.logF == nil {
		return nil
	}
	var err error
	if w.cfg.Policy != FsyncNever {
		err = w.logF.Sync()
	}
	if cerr := w.logF.Close(); err == nil {
		err = cerr
	}
	w.logF = nil
	return err
}

// writeFileAtomic publishes data at path via tmp + fsync + rename, so
// readers (and crash recovery) only ever see the old or the new content.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Its error is returned: a rename whose entry may not survive
// power loss is not a durable write. It is a variable so tests can make it
// fail.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
