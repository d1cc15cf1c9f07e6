package sketchcore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"graphsketch/internal/hashing"
	"graphsketch/internal/wire"
)

// ErrBadEncoding is returned for corrupt or truncated arena state.
var ErrBadEncoding = errors.New("sketchcore: bad encoding")

// Wire format tags, re-exported from the shared codec so consumers can pick
// a format without importing internal/wire.
const (
	// FormatDense is the fixed-size nested-cell encoding (24 bytes per
	// cell, content-independent size) — the byte-stable AGM2 payload.
	FormatDense = wire.FormatDense
	// FormatCompact is the zero-run-length + varint encoding of the
	// exact-level cells: size proportional to non-zero state, the format
	// per-site sketches ship to a coordinator.
	FormatCompact = wire.FormatCompact
)

// StateSize returns the exact byte length of the arena's encoded cell
// state: 24 bytes (w, s, f as u64 LE) per cell.
func (a *Arena) StateSize() int { return len(a.cells) * 24 }

// occupancyScan is the single occupancy-guided walk behind wire-size and
// occupancy accounting: unoccupied 64-slot spans contribute their zero-run
// lengths arithmetically, occupied rows are read exactly once, so the cost
// tracks the occupied state, not the arena capacity. Returns the compact
// payload size (without the tag byte) and the exact non-zero cell count.
func (a *Arena) occupancyScan() (compactSize, nonzero int) {
	rs := wire.NewRunsSizer(len(a.cells))
	rowCells := a.reps * a.levels
	for wi, w := range a.occ {
		lo := wi << 6
		hi := lo + 64
		if hi > a.slots {
			hi = a.slots
		}
		if w == 0 {
			rs.Zeros((hi - lo) * rowCells)
			continue
		}
		for slot := lo; slot < hi; slot++ {
			if w&(1<<(uint(slot)&63)) == 0 {
				rs.Zeros(rowCells)
				continue
			}
			base := slot * rowCells
			for j := 0; j < rowCells; j++ {
				c := &a.cells[base+j]
				rs.Cell(c.w, c.s, c.f)
				if c.w != 0 || c.s != 0 || c.f != 0 {
					nonzero++
				}
			}
		}
	}
	return rs.Size(), nonzero
}

// CompactStateSize returns the byte length AppendStateTagged(FormatCompact)
// would produce, without building it (minus the tag byte).
func (a *Arena) CompactStateSize() int {
	size, _ := a.occupancyScan()
	return size
}

// AppendState appends the arena's cell state to buf. Configuration (shape,
// seeds) is not encoded: the decoder reconstructs it from the same Config,
// exactly as the l0 wire format reconstructed hashes from the seed.
//
// The wire carries the NESTED cell values (N(j) = sum_{j' >= j} of the
// stored exact-level increments) in (slot, rep, level) order — the AGM2
// encoding predating the exact-level in-memory representation — so
// serialized sketches are unchanged across the representation switch. New
// callers should prefer AppendStateTagged, which carries a format tag and
// offers the occupancy-proportional compact encoding.
func (a *Arena) AppendState(buf []byte) []byte {
	var tmp [8]byte
	row := make([]acell, a.levels)
	for base := 0; base < len(a.cells); base += a.levels {
		// Suffix-sum the row into nested values.
		var acc acell
		for j := a.levels - 1; j >= 0; j-- {
			c := &a.cells[base+j]
			acc.w += c.w
			acc.s += c.s
			acc.f = hashing.AddMod61(acc.f, c.f)
			row[j] = acc
		}
		for j := 0; j < a.levels; j++ {
			binary.LittleEndian.PutUint64(tmp[:], uint64(row[j].w))
			buf = append(buf, tmp[:]...)
			binary.LittleEndian.PutUint64(tmp[:], uint64(row[j].s))
			buf = append(buf, tmp[:]...)
			binary.LittleEndian.PutUint64(tmp[:], row[j].f)
			buf = append(buf, tmp[:]...)
		}
	}
	return buf
}

// DecodeState reads cell state produced by AppendState into the arena and
// returns the remaining bytes, converting the wire's nested values back to
// exact-level increments (D(j) = N(j) - N(j+1), exact in every aggregate)
// and rebuilding the occupancy bitmap from the decoded state.
func (a *Arena) DecodeState(data []byte) ([]byte, error) {
	rest, err := a.decodeStateDense(data, false)
	if err != nil {
		return nil, err
	}
	a.rebuildOcc()
	return rest, nil
}

// decodeStateDense reads one dense nested payload. With merge unset it
// replaces the arena's cell state; with merge set it adds the decoded state
// into the existing cells (occupancy maintenance is the caller's job).
func (a *Arena) decodeStateDense(data []byte, merge bool) ([]byte, error) {
	n := a.StateSize()
	if len(data) < n {
		return nil, ErrBadEncoding
	}
	if !merge {
		for i := range a.cells {
			off := i * 24
			a.cells[i] = acell{
				w: int64(binary.LittleEndian.Uint64(data[off:])),
				s: int64(binary.LittleEndian.Uint64(data[off+8:])),
				f: binary.LittleEndian.Uint64(data[off+16:]),
			}
		}
		for base := 0; base < len(a.cells); base += a.levels {
			for j := 0; j < a.levels-1; j++ {
				c, next := &a.cells[base+j], &a.cells[base+j+1]
				c.w -= next.w
				c.s -= next.s
				c.f = hashing.SubMod61(c.f, next.f)
			}
		}
		return data[n:], nil
	}
	// Merge fold: decode each row into a scratch row, convert nested ->
	// exact-level, and add. Rows whose wire bytes are all zero add nothing;
	// the slot stays unmarked unless some row carries state.
	row := make([]acell, a.levels)
	rowCells := a.reps * a.levels
	for base := 0; base < len(a.cells); base += a.levels {
		off := base * 24
		rowNonzero := false
		for j := 0; j < a.levels; j++ {
			o := off + j*24
			row[j] = acell{
				w: int64(binary.LittleEndian.Uint64(data[o:])),
				s: int64(binary.LittleEndian.Uint64(data[o+8:])),
				f: binary.LittleEndian.Uint64(data[o+16:]),
			}
			if row[j].w != 0 || row[j].s != 0 || row[j].f != 0 {
				rowNonzero = true
			}
		}
		if !rowNonzero {
			continue
		}
		for j := 0; j < a.levels-1; j++ {
			row[j].w -= row[j+1].w
			row[j].s -= row[j+1].s
			row[j].f = hashing.SubMod61(row[j].f, row[j+1].f)
		}
		for j := 0; j < a.levels; j++ {
			cellAdd(&a.cells[base+j], row[j].w, row[j].s, row[j].f)
		}
		a.markSlot(base / rowCells)
	}
	return data[n:], nil
}

// MergeStateDense folds one UNTAGGED dense nested payload (the legacy AGM2
// bank layout) into the arena — the back-compat arm of wire-level merging.
func (a *Arena) MergeStateDense(data []byte) ([]byte, error) {
	return a.decodeStateDense(data, true)
}

// AppendStateTagged appends one format tag byte and the arena's cell state
// in that format. FormatDense writes the AGM2 nested payload; FormatCompact
// writes the run-length encoding of the exact-level cells, whose size is
// proportional to the non-zero state rather than the arena capacity.
//
// format must be a known tag: every exported marshal boundary validates
// caller-supplied format bytes with wire.ValidFormat and returns an error,
// so reaching the default branch here is a programmer error inside the
// library, not an input condition.
func (a *Arena) AppendStateTagged(buf []byte, format byte) []byte {
	buf = append(buf, format)
	switch format {
	case FormatDense:
		return a.AppendState(buf)
	case FormatCompact:
		return appendCellRuns(buf, a.cells)
	default:
		panic(fmt.Sprintf("sketchcore: unknown wire format %d (unvalidated caller)", format))
	}
}

// appendCellRuns is the compact arm: wire.AppendRuns' bytes exactly, from a
// direct walk of the cell array. Epoch publication and snapshots re-encode
// every dirty bank, almost all of it zero cells, so the walk calls no
// per-cell accessor and the writer grows its buffer once per literal run.
func appendCellRuns(buf []byte, cells []acell) []byte {
	rw := wire.NewRunsWriter(buf, len(cells))
	for i := 0; i < len(cells); {
		z := i
		for z < len(cells) && cells[z] == (acell{}) {
			z++
		}
		rw.Zeros(z - i)
		if z == len(cells) {
			break
		}
		i = z + 1
		for i < len(cells) && cells[i] != (acell{}) {
			i++
		}
		rw.Literal(i - z)
		for _, c := range cells[z:i] {
			rw.Cell(c.w, c.s, c.f)
		}
	}
	return rw.Bytes()
}

// DecodeStateTagged reads one tagged cell state (either format) into the
// arena, replacing its contents, and returns the remaining bytes.
func (a *Arena) DecodeStateTagged(data []byte) ([]byte, error) {
	if len(data) < 1 {
		return nil, ErrBadEncoding
	}
	format, data := data[0], data[1:]
	switch format {
	case FormatDense:
		return a.DecodeState(data)
	case FormatCompact:
		a.Reset() // occupancy-guided zeroing: only occupied rows are touched
		rowCells := a.reps * a.levels
		rest, err := wire.DecodeRuns(data, len(a.cells), func(i int, w, s int64, f uint64) {
			a.cells[i] = acell{w: w, s: s, f: f}
			a.markSlot(i / rowCells)
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
		}
		return rest, nil
	default:
		return nil, fmt.Errorf("%w: unknown format tag %d", ErrBadEncoding, format)
	}
}

// MergeStateTagged folds one tagged cell state directly into the arena —
// the coordinator's MergeBytes primitive: serialized per-site state is
// added cell-wise without materializing a second arena, and for compact
// payloads the work is proportional to the bytes, not the arena. The result
// is bit-identical to decoding into a scratch arena and Add-ing it.
func (a *Arena) MergeStateTagged(data []byte) ([]byte, error) {
	if len(data) < 1 {
		return nil, ErrBadEncoding
	}
	format, data := data[0], data[1:]
	switch format {
	case FormatDense:
		return a.decodeStateDense(data, true)
	case FormatCompact:
		rowCells := a.reps * a.levels
		rest, err := wire.DecodeRuns(data, len(a.cells), func(i int, w, s int64, f uint64) {
			cellAdd(&a.cells[i], w, s, f)
			a.markSlot(i / rowCells)
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
		}
		return rest, nil
	default:
		return nil, fmt.Errorf("%w: unknown format tag %d", ErrBadEncoding, format)
	}
}

// Footprint is the space report of a sketch layer: what it costs resident,
// how much of that is live state, and what it costs on the wire in each
// format. Layers sum their children's reports with Accum; envelope headers
// (a few dozen bytes per sketch) are excluded.
type Footprint struct {
	// ResidentBytes is the in-memory size: cell arrays plus hash/table
	// state, as counted by the historical Words() accounting.
	ResidentBytes int64 `json:"resident_bytes"`
	// TotalCells and NonzeroCells report cell occupancy; their ratio is
	// what the compact wire format and occupancy-guided merges exploit.
	TotalCells   int64 `json:"total_cells"`
	NonzeroCells int64 `json:"nonzero_cells"`
	// WireDenseBytes and WireCompactBytes are the serialized cell-state
	// sizes in the two formats (tag bytes included).
	WireDenseBytes   int64 `json:"wire_dense_bytes"`
	WireCompactBytes int64 `json:"wire_compact_bytes"`
}

// Accum adds another layer's footprint into f.
func (f *Footprint) Accum(g Footprint) {
	f.ResidentBytes += g.ResidentBytes
	f.TotalCells += g.TotalCells
	f.NonzeroCells += g.NonzeroCells
	f.WireDenseBytes += g.WireDenseBytes
	f.WireCompactBytes += g.WireCompactBytes
}

// Footprint reports the arena's space accounting, from one occupancy-
// guided walk (occupancyScan).
func (a *Arena) Footprint() Footprint {
	compactSize, nonzero := a.occupancyScan()
	return Footprint{
		ResidentBytes:    int64(a.Words()) * 8,
		TotalCells:       int64(len(a.cells)),
		NonzeroCells:     int64(nonzero),
		WireDenseBytes:   int64(1 + a.StateSize()),
		WireCompactBytes: int64(1 + compactSize),
	}
}
