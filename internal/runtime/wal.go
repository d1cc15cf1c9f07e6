package runtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// ErrWALCorrupt marks durable state whose bytes were altered after they
// were written — bit-rot, not crash truncation. A crash mid-append can only
// leave a PREFIX of a record (short header, or a declared length running
// past end-of-file); it can never produce a full-length record whose
// checksum fails, because the length word was written before the body. The
// distinction matters operationally: a torn tail is silently truncated (the
// lost suffix was never acknowledged), while corruption means acknowledged
// durable state is gone and the tenant must be quarantined and repaired
// from a peer rather than served.
var ErrWALCorrupt = errors.New("wal: corrupt record (bit-rot, not torn tail)")

// ErrTookEffect marks a DiskWAL error from a step whose file was already
// renamed into place. The step has been carried through: the mirror, the
// position and the append handle all reflect the new state, and the caller
// must treat it as done. What failed came after the rename and is
// reported so it is not lost: a directory fsync (the rename may not
// survive power loss), or the log reset that follows a published snapshot
// (the next Append retries it before it writes).
var ErrTookEffect = errors.New("wal: took effect, but did not finish")

// recStatus classifies one framed-record decode.
type recStatus int

const (
	recOK      recStatus = iota // record decoded
	recTorn                     // short prefix: crash-truncated tail
	recCorrupt                  // full-length body with bad checksum/payload
)

// WAL is a site's durable state: a write-ahead log of coalesced update
// batches plus an optional sketch snapshot. A crash wipes the site's
// in-memory sketch but not its WAL; recovery replays snapshot + log tail
// into a factory-fresh sketch, which by linearity is bit-identical to the
// sketch the site lost.
//
// Record framing is [u32 len][u32 crc32c][payload] with the batch payload
// encoded as uvarint END POSITION (the raw stream position the durable
// state reflects once this record is applied), uvarint count, then
// (uvarint u, uvarint v, zigzag-varint delta) per update. Carrying the
// position explicitly is what keeps the re-feed contract exact under
// compaction: a coalesced record replays fewer updates than were
// acknowledged, but its position still names the acknowledged prefix.
// Replay is torn-tail tolerant: a crash mid-append leaves a short or
// checksum-failing final record, which replay treats as end-of-log rather
// than corruption — exactly the contract a real fsync-per-record log gives
// you.
type WAL struct {
	n        int    // vertex count, pinned so replay can rebuild streams
	log      []byte // framed batch records appended since the snapshot
	snapshot []byte // sealed compact sketch payload, nil until first snapshot
	// pos is the raw stream position the durable state reflects (every
	// update ever appended), monotone even across Compact. snapPos is the
	// position the snapshot covers. logUpdates counts the updates the log
	// records actually replay — the recovery cost, <= pos-snapPos once the
	// log has been compacted.
	pos        int
	snapPos    int
	logUpdates int
}

// NewWAL creates an empty log for streams on n vertices.
func NewWAL(n int) *WAL { return &WAL{n: n} }

// DurableUpdates reports the raw stream position the durable state
// reflects — the exact position an ingest driver re-feeds from after a
// crash.
func (w *WAL) DurableUpdates() int { return w.pos }

// ReplayUpdates reports how many updates log replay applies at recovery
// (the recovery cost; less than the position once the log is compacted).
func (w *WAL) ReplayUpdates() int { return w.logUpdates }

// Bytes reports the durable footprint (log + snapshot).
func (w *WAL) Bytes() int { return len(w.log) + len(w.snapshot) }

// LogBytes reports the framed log-tail bytes a recovery replays (the part
// of the durable footprint that scales with updates since the snapshot).
func (w *WAL) LogBytes() int { return len(w.log) }

// SnapshotBytes reports the sealed snapshot payload bytes (the part that
// scales with the sketch's non-zero state, not the stream length).
func (w *WAL) SnapshotBytes() int { return len(w.snapshot) }

// SnapshotUpdates reports the raw stream position the snapshot covers; the
// difference DurableUpdates()-SnapshotUpdates() is what log replay spans.
func (w *WAL) SnapshotUpdates() int { return w.snapPos }

// Append encodes one update batch as a framed record at the log tail.
func (w *WAL) Append(ups []stream.Update) {
	if len(ups) == 0 {
		return
	}
	w.pushRecord(w.frame(ups, w.pos+len(ups)), len(ups))
}

// frame encodes ups as one log record whose replay lands on posAfter.
// Compaction uses it to rewrite history without moving the position; a
// zero-length ups is legal and encodes a pure position marker.
func (w *WAL) frame(ups []stream.Update, posAfter int) []byte {
	payload := stream.AppendBatch(wire.AppendUvarint(nil, uint64(posAfter)), ups)
	rec := binary.LittleEndian.AppendUint32(make([]byte, 0, 8+len(payload)), uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, wire.Checksum(payload))
	return append(rec, payload...)
}

// pushRecord appends a framed record carrying n updates to the log tail
// and advances the position past them.
func (w *WAL) pushRecord(rec []byte, n int) {
	w.log = append(w.log, rec...)
	w.logUpdates += n
	w.pos += n
}

// TearTail simulates a crash mid-append by truncating the last n bytes of
// the log — replay must treat the torn record as end-of-log.
func (w *WAL) TearTail(n int) {
	if n > len(w.log) {
		n = len(w.log)
	}
	w.log = w.log[:len(w.log)-n]
}

// decodeBatch reads one framed record, returning the updates, the position
// the record replays to, the rest, and a verdict: recTorn when the bytes
// are a crash-truncated prefix (replay treats it as end-of-log), recCorrupt
// when a full-length record fails its checksum or payload decode (bit-rot —
// acknowledged state is damaged).
func decodeBatch(data []byte) (ups []stream.Update, posAfter int, rest []byte, status recStatus) {
	if len(data) < 8 {
		return nil, 0, nil, recTorn
	}
	n := binary.LittleEndian.Uint32(data)
	crc := binary.LittleEndian.Uint32(data[4:])
	body := data[8:]
	if uint64(n) > uint64(len(body)) {
		// The declared length runs past end-of-file: the body write never
		// completed. This is the torn-tail shape; a checksum failure below
		// (full body present) cannot be.
		return nil, 0, nil, recTorn
	}
	payload := body[:n]
	if wire.Checksum(payload) != crc {
		return nil, 0, nil, recCorrupt
	}
	pos, payload, err := wire.Uvarint(payload)
	if err != nil {
		return nil, 0, nil, recCorrupt
	}
	ups, payload, err = stream.DecodeBatch(payload)
	if err != nil || len(payload) != 0 {
		return nil, 0, nil, recCorrupt
	}
	return ups, int(pos), body[n:], recOK
}

// replayLog walks the framed records, returning all updates up to the
// first undecodable record, the position the valid prefix replays to, the
// byte length of that prefix, and whether the stop was mid-log corruption
// (bit-rot) rather than a tolerated torn tail.
func (w *WAL) replayLog() (all []stream.Update, endPos, validLen int, corrupt bool) {
	endPos = w.snapPos
	data := w.log
	for len(data) > 0 {
		ups, pos, rest, status := decodeBatch(data)
		if status != recOK {
			return all, endPos, validLen, status == recCorrupt
		}
		all = append(all, ups...)
		endPos = pos
		validLen = len(w.log) - len(rest)
		data = rest
	}
	return all, endPos, validLen, false
}

// Snapshot captures the sketch's current compact payload (sealed in a
// checksummed envelope) and drops the log records it covers. The sketch
// passed in must reflect exactly the updates appended so far.
func (w *WAL) Snapshot(sk Sketch) error {
	payload, err := sk.MarshalBinaryCompact()
	if err != nil {
		return err
	}
	w.snapshot = wire.Seal(payload)
	w.snapPos = w.pos
	w.log = w.log[:0]
	w.logUpdates = 0
	return nil
}

// InstallSnapshot replaces the durable state wholesale with a sealed
// compact payload captured elsewhere, covering the raw stream position pos
// — the replica sync-install primitive. The local log is discarded: the
// remote payload is a complete state, so every locally-logged update is
// either already inside it (it was re-fed to the new primary) or belongs
// to an abandoned timeline the position handshake routed around. The
// position may move backward for the same reason. The envelope is
// validated before anything is dropped.
func (w *WAL) InstallSnapshot(sealed []byte, pos int) error {
	if _, _, err := wire.Open(sealed); err != nil {
		return fmt.Errorf("wal: install snapshot envelope: %w", err)
	}
	w.installSnapshot(bytes.Clone(sealed), pos)
	return nil
}

// installSnapshot is InstallSnapshot for an envelope already validated;
// the mirror keeps sealed itself.
func (w *WAL) installSnapshot(sealed []byte, pos int) {
	w.snapshot = sealed
	w.snapPos = pos
	w.pos = pos
	w.log = w.log[:0]
	w.logUpdates = 0
}

// Compact rewrites the log as one coalesced batch: one surviving update
// per edge with non-zero net multiplicity, sorted. By linearity the
// coalesced replay is bit-neutral — the compaction a long-running site
// applies so its durable state tracks the live edge set, not the stream
// length. The rewritten record keeps the original end position, so re-feed
// contracts survive compaction exactly.
func (w *WAL) Compact() {
	if rec, n, endPos, ok := w.compaction(); ok {
		w.setLog(rec, n, endPos)
	}
}

// compaction builds the record Compact rewrites the log to, without
// touching the log: the coalesced updates framed to replay onto endPos,
// and how many there are. ok is false when there is nothing to rewrite.
func (w *WAL) compaction() (rec []byte, n, endPos int, ok bool) {
	ups, endPos, _, corrupt := w.replayLog()
	if corrupt {
		// Rewriting a corrupt log would destroy the evidence the scrubber
		// needs to quarantine the tenant; leave the bytes for it to find.
		return nil, 0, 0, false
	}
	if len(ups) == 0 {
		return nil, 0, 0, false
	}
	co := (&stream.Stream{N: w.n, Updates: ups}).Coalesce()
	// A fully cancelled log still needs a position marker, or replay would
	// report the snapshot position and the driver would re-feed acked
	// updates (double-count). frame accepts zero updates for this.
	return w.frame(co.Updates, endPos), len(co.Updates), endPos, true
}

// setLog replaces the log tail with the single record rec carrying n
// updates and replaying onto endPos.
func (w *WAL) setLog(rec []byte, n, endPos int) {
	w.log = append(w.log[:0], rec...)
	w.logUpdates = n
	w.pos = endPos
}

// Recover rebuilds the site's sketch from durable state: a factory-fresh
// sketch, the snapshot payload folded in via MergeBytes, then the log tail
// replayed through UpdateBatch. Returns the sketch and the raw stream
// position it reflects — the exact position to re-feed from. A torn tail
// is dropped from the log in the process, so post-recovery appends land on
// a clean record boundary.
func (w *WAL) Recover(factory Factory) (Sketch, int, error) {
	sk := factory()
	if w.snapshot != nil {
		payload, _, err := wire.Open(w.snapshot)
		if err != nil {
			// The envelope was valid when the snapshot was taken/installed,
			// so a failure here is rot in the mirrored bytes themselves.
			return nil, 0, fmt.Errorf("wal: snapshot envelope: %v: %w", err, ErrWALCorrupt)
		}
		if err := sk.MergeBytes(payload); err != nil {
			return nil, 0, fmt.Errorf("wal: snapshot restore: %w", err)
		}
	}
	ups, endPos, validLen, corrupt := w.replayLog()
	if corrupt {
		return nil, 0, fmt.Errorf("wal: log replay at position %d: %w", endPos, ErrWALCorrupt)
	}
	if len(ups) > 0 {
		sk.UpdateBatch(ups)
	}
	// Resync the mirror to the valid prefix: the torn bytes are gone for
	// good (their updates were never acknowledged as durable), and new
	// appends must not land after an undecodable record.
	w.log = w.log[:validLen]
	w.pos = endPos
	w.logUpdates = len(ups)
	return sk, endPos, nil
}
