package runtime

import (
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

// ErrNoSuffix reports that the log cannot give the exact updates after a
// position: the snapshot covers it, it falls inside a record, or a
// compacted record lies between it and the end of the log.
var ErrNoSuffix = errors.New("wal: no exact log suffix from that position")

// recStatus classifies one framed-record decode.
type recStatus int

const (
	recOK      recStatus = iota // record decoded
	recTorn                     // short prefix: crash-truncated tail
	recCorrupt                  // full-length body with bad checksum/payload
)

// mirror is DiskWAL's in-memory copy of the durable state: a write-ahead
// log of coalesced update batches plus an optional sketch snapshot. A
// crash wipes the in-memory sketch but not the files; recovery replays
// snapshot + log tail into a factory-fresh sketch, which by linearity is
// bit-identical to the sketch that was lost.
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
type mirror struct {
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

// frame encodes ups as one log record whose replay lands on posAfter.
// Compaction uses it to rewrite history without moving the position; a
// zero-length ups is legal and encodes a pure position marker.
func (w *mirror) frame(ups []stream.Update, posAfter int) []byte {
	payload := stream.AppendBatch(wire.AppendUvarint(nil, uint64(posAfter)), ups)
	rec := binary.LittleEndian.AppendUint32(make([]byte, 0, 8+len(payload)), uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, wire.Checksum(payload))
	return append(rec, payload...)
}

// pushRecord appends a framed record carrying n updates to the log tail
// and advances the position past them.
func (w *mirror) pushRecord(rec []byte, n int) {
	w.log = append(w.log, rec...)
	w.logUpdates += n
	w.pos += n
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
func (w *mirror) replayLog() (all []stream.Update, endPos, validLen int, corrupt bool) {
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

// suffix returns the updates of the records covering [from, pos), in log
// order. See DiskWAL.Suffix for when there is none.
func (w *mirror) suffix(from int) ([]stream.Update, error) {
	if from < w.snapPos || from > w.pos {
		return nil, fmt.Errorf("wal: position %d outside the log [%d, %d]: %w", from, w.snapPos, w.pos, ErrNoSuffix)
	}
	var out []stream.Update
	at := w.snapPos
	for data := w.log; len(data) > 0; {
		ups, pos, rest, status := decodeBatch(data)
		if status != recOK {
			return nil, fmt.Errorf("wal: log suffix at position %d: %w", at, ErrWALCorrupt)
		}
		switch {
		case pos <= from:
		case at < from:
			return nil, fmt.Errorf("wal: position %d is inside the record [%d, %d): %w", from, at, pos, ErrNoSuffix)
		case pos-at != len(ups):
			return nil, fmt.Errorf("wal: record [%d, %d) is compacted to %d updates: %w", at, pos, len(ups), ErrNoSuffix)
		default:
			out = append(out, ups...)
		}
		at, data = pos, rest
	}
	return out, nil
}

// installSnapshot replaces the state wholesale with a validated sealed
// compact payload covering the raw stream position pos; the mirror keeps
// sealed itself. The log is discarded: the payload is a complete state.
func (w *mirror) installSnapshot(sealed []byte, pos int) {
	w.snapshot = sealed
	w.snapPos = pos
	w.pos = pos
	w.log = w.log[:0]
	w.logUpdates = 0
}

// compaction builds the record DiskWAL.Compact rewrites the log to, without
// touching the log: the coalesced updates framed to replay onto endPos,
// and how many there are. ok is false when there is nothing to rewrite.
func (w *mirror) compaction() (rec []byte, n, endPos int, ok bool) {
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
func (w *mirror) setLog(rec []byte, n, endPos int) {
	w.log = append(w.log[:0], rec...)
	w.logUpdates = n
	w.pos = endPos
}

// recover rebuilds the sketch from durable state: a factory-fresh
// sketch, the snapshot payload folded in via MergeBytes, then the log tail
// replayed through UpdateBatch. Returns the sketch and the raw stream
// position it reflects — the exact position to re-feed from. A torn tail
// is dropped from the log in the process, so post-recovery appends land on
// a clean record boundary.
func (w *mirror) recover(factory Factory) (Sketch, int, error) {
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
