// Package wire holds the shared cell-state wire codec under every sketch
// layer's marshal surface: the version tag, zigzag varints, and a
// run-length encoding for flat arrays of (w, s, f) recovery-cell aggregates.
//
// Every cell-state payload is one tag byte followed by the run-length
// encoding: runs of zero cells collapse to one varint, non-zero cells encode
// as zigzag-varint w and s plus the 8-byte fingerprint. Size is
// proportional to the non-zero state — the wire format for the paper's
// distributed/MapReduce deployment, where per-site sketches are sparse and
// bytes shipped to the coordinator are the scarce resource. The tag is a
// version check only: decoders reject any other value.
//
// The ENCODER is canonical for a given cell state (maximal runs, minimal
// varints): encoding any state, decoding it, and re-encoding reproduces
// the bytes — the property the compact round-trip fuzz target pins. The
// decoder is deliberately more liberal (it accepts zero-length runs and
// literal-encoded zero cells), so byte-level identity is guaranteed only
// for encoder-produced payloads, not for arbitrary accepted input.
package wire

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync/atomic"
)

// cellsTag leads every cell-state payload. It is 0x01 because it once
// selected between two cell formats; only that one remains.
const cellsTag byte = 1

// ErrBadEncoding is returned for corrupt, truncated, or non-canonical
// cell-state bytes.
var ErrBadEncoding = errors.New("wire: bad encoding")

// AppendTag appends the tag byte that opens a cell-state payload; the
// run-length cells (AppendRuns, RunsWriter) follow it.
func AppendTag(buf []byte) []byte { return append(buf, cellsTag) }

// decodeCellBudget caps the total number of recovery cells any single
// decode is allowed to materialize from header-declared dimensions. A
// corrupted (or hostile) header can otherwise declare plausible-looking
// per-field values whose product allocates tens of GiB before the first
// payload byte is validated — compact payloads for near-empty sketches are
// legitimately tiny, so payload length alone cannot bound the allocation.
// The default (2^30 cells, ~24 GiB resident) admits every shape the library
// constructs in practice while refusing absurd products; servers decoding
// payloads from untrusted peers should lower it to their real ceiling.
//
// The budget is an atomic: decode paths run concurrently in the sketch
// service and the fuzz/chaos suites adjust it at runtime, so reads and
// swaps must be race-clean.
var decodeCellBudget atomic.Int64

func init() { decodeCellBudget.Store(1 << 30) }

// DecodeCellBudget returns the current decode cell budget.
func DecodeCellBudget() int64 { return decodeCellBudget.Load() }

// SetDecodeCellBudget replaces the decode cell budget, returning the
// previous value. Safe for concurrent use with decoders (each decode reads
// the budget once); in-flight decodes may observe either value. Used by
// fuzz harnesses (shrinking it so corrupt headers fail fast instead of
// thrashing the allocator) and by servers decoding untrusted payloads.
func SetDecodeCellBudget(v int64) int64 {
	return decodeCellBudget.Swap(v)
}

// CheckCellBudget validates that the product of the given header-declared
// dimensions stays within the decode cell budget, without overflowing.
// Non-positive dimensions are rejected outright.
func CheckCellBudget(dims ...int64) error {
	budget := decodeCellBudget.Load()
	prod := int64(1)
	for _, d := range dims {
		if d <= 0 {
			return ErrBadEncoding
		}
		if prod > budget/d {
			return ErrBadEncoding
		}
		prod *= d
	}
	return nil
}

// Zigzag maps a signed value to an unsigned one with small magnitudes
// staying small (the usual protobuf transform).
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendUvarint appends v in varint form.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// Uvarint reads one varint off the front of data.
func Uvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, ErrBadEncoding
	}
	return v, data[n:], nil
}

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// MaxCellBytes is the largest encoding of one literal cell: two 10-byte
// zigzag varints plus the fixed 8-byte fingerprint.
const MaxCellBytes = 2*binary.MaxVarintLen64 + 8

// DecodeCell reads one cell written by RunsWriter.Cell.
func DecodeCell(data []byte) (w, s int64, f uint64, rest []byte, err error) {
	zw, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, 0, nil, ErrBadEncoding
	}
	data = data[n:]
	zs, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, 0, nil, ErrBadEncoding
	}
	data = data[n:]
	if len(data) < 8 {
		return 0, 0, 0, nil, ErrBadEncoding
	}
	return Unzigzag(zw), Unzigzag(zs), binary.LittleEndian.Uint64(data), data[8:], nil
}

// cellSize returns RunsWriter.Cell's encoded size for the cell.
func cellSize(w, s int64) int {
	return uvarintLen(Zigzag(w)) + uvarintLen(Zigzag(s)) + 8
}

// RunsWriter emits the compact run-length encoding: the cell count, then
// alternating maximal (zeroRun, literalRun) varint pairs, each literal run
// followed by its cells, until every cell is covered. A trailing zero run
// carries no literal-run count. It is the format's one byte emitter; callers
// own the walk that finds the runs (AppendRuns over an accessor, the arena
// over its cell array) and must keep runs maximal for the encoding to be
// canonical.
type RunsWriter struct{ buf []byte }

// NewRunsWriter starts an encoding of n cells appended to buf. The leading
// cell count is an integrity check against decoding into a differently
// shaped sketch.
func NewRunsWriter(buf []byte, n int) RunsWriter {
	return RunsWriter{buf: binary.AppendUvarint(buf, uint64(n))}
}

// Zeros writes one zero run of z cells (z may be 0 ahead of a leading
// literal run).
func (rw *RunsWriter) Zeros(z int) { rw.buf = binary.AppendUvarint(rw.buf, uint64(z)) }

// Literal opens a literal run of lit non-zero cells and reserves room for
// all of them, so the lit Cell calls that must follow never grow the buffer.
func (rw *RunsWriter) Literal(lit int) {
	rw.buf = slices.Grow(binary.AppendUvarint(rw.buf, uint64(lit)), lit*MaxCellBytes)
}

// Cell writes one cell of the open literal run: zigzag-varint w,
// zigzag-varint s, fingerprint as fixed 8-byte LE (fingerprints are uniform
// mod 2^61-1, so a varint would only pad them).
func (rw *RunsWriter) Cell(w, s int64, f uint64) {
	n := len(rw.buf)
	b := rw.buf[n : n+MaxCellBytes]
	k := binary.PutUvarint(b, Zigzag(w))
	k += binary.PutUvarint(b[k:], Zigzag(s))
	binary.LittleEndian.PutUint64(b[k:], f)
	rw.buf = rw.buf[:n+k+8]
}

// Bytes returns the buffer with everything written so far.
func (rw *RunsWriter) Bytes() []byte { return rw.buf }

// AppendRuns appends the compact run-length encoding (see RunsWriter) of n
// cells served by get.
func AppendRuns(buf []byte, n int, get func(i int) (w, s int64, f uint64)) []byte {
	rw := NewRunsWriter(buf, n)
	i := 0
	for i < n {
		z := 0
		for i+z < n {
			w, s, f := get(i + z)
			if w != 0 || s != 0 || f != 0 {
				break
			}
			z++
		}
		rw.Zeros(z)
		i += z
		if i == n {
			break
		}
		lit := 0
		for i+lit < n {
			w, s, f := get(i + lit)
			if w == 0 && s == 0 && f == 0 {
				break
			}
			lit++
		}
		rw.Literal(lit)
		for j := i; j < i+lit; j++ {
			rw.Cell(get(j))
		}
		i += lit
	}
	return rw.Bytes()
}

// RunsSizer computes AppendRuns' encoded size incrementally, letting a
// caller that can PROVE whole regions are zero (an occupancy bitmap) skip
// them arithmetically with Zeros(k) instead of touching k cells. Feeding
// every cell through Cell() yields exactly RunsSize; interleaving Zeros()
// for known-zero regions yields the same total without the memory traffic.
type RunsSizer struct {
	size     int
	zrun     uint64
	inLit    bool
	litLen   uint64
	litBytes int
}

// NewRunsSizer starts a size computation for n cells.
func NewRunsSizer(n int) *RunsSizer {
	return &RunsSizer{size: uvarintLen(uint64(n))}
}

// Zeros accounts for k consecutive zero cells.
func (rs *RunsSizer) Zeros(k int) {
	if k == 0 {
		return
	}
	if rs.inLit {
		rs.flushLit()
	}
	rs.zrun += uint64(k)
}

// Cell accounts for one cell (zero cells route to the current zero run).
func (rs *RunsSizer) Cell(w, s int64, f uint64) {
	if w == 0 && s == 0 && f == 0 {
		rs.Zeros(1)
		return
	}
	if !rs.inLit {
		// A zero-run varint (possibly encoding 0) precedes every literal
		// run — mirror AppendRuns exactly.
		rs.size += uvarintLen(rs.zrun)
		rs.zrun = 0
		rs.inLit = true
	}
	rs.litLen++
	rs.litBytes += cellSize(w, s)
}

func (rs *RunsSizer) flushLit() {
	rs.size += uvarintLen(rs.litLen) + rs.litBytes
	rs.litLen, rs.litBytes, rs.inLit = 0, 0, false
}

// Size finalizes and returns the encoded size. Terminal: feed no more
// cells afterwards.
func (rs *RunsSizer) Size() int {
	if rs.inLit {
		rs.flushLit()
	} else if rs.zrun > 0 {
		rs.size += uvarintLen(rs.zrun)
		rs.zrun = 0
	}
	return rs.size
}

// DecodeCells reads one cell-state payload — the tag byte, then the
// run-length encoding of exactly n cells (see DecodeRuns) — and returns the
// remaining bytes. Any tag byte but the current one is ErrBadEncoding.
func DecodeCells(data []byte, n int, set func(i int, w, s int64, f uint64)) ([]byte, error) {
	if len(data) < 1 || data[0] != cellsTag {
		return nil, ErrBadEncoding
	}
	return DecodeRuns(data[1:], n, set)
}

// DecodeRuns reads a compact encoding of exactly n cells, calling set for
// every literal (non-zero-encoded) cell. Cells inside zero runs are never
// reported: decoders into fresh state rely on it already being zero, and
// merge folds rely on adding nothing. Returns the remaining bytes.
func DecodeRuns(data []byte, n int, set func(i int, w, s int64, f uint64)) ([]byte, error) {
	if n < 0 {
		return nil, ErrBadEncoding
	}
	got, data, err := Uvarint(data)
	if err != nil {
		return nil, err
	}
	if got != uint64(n) {
		return nil, ErrBadEncoding
	}
	i := 0
	for i < n {
		z, rest, err := Uvarint(data)
		if err != nil {
			return nil, err
		}
		data = rest
		if z > uint64(n-i) {
			return nil, ErrBadEncoding
		}
		i += int(z)
		if i == n {
			break
		}
		lit, rest, err := Uvarint(data)
		if err != nil {
			return nil, err
		}
		data = rest
		if lit == 0 || lit > uint64(n-i) {
			return nil, ErrBadEncoding
		}
		// A literal cell is at least 10 bytes (two 1-byte varints + the
		// 8-byte fingerprint): a literal-run count the remaining payload
		// cannot possibly back is corrupt, caught here instead of after
		// lit callback-driven decode iterations.
		if lit > uint64(len(data)/10)+1 {
			return nil, ErrBadEncoding
		}
		for j := 0; j < int(lit); j++ {
			w, s, f, rest, err := DecodeCell(data)
			if err != nil {
				return nil, err
			}
			data = rest
			set(i+j, w, s, f)
		}
		i += int(lit)
	}
	return data, nil
}
