package sketchcore

import (
	"fmt"

	"graphsketch/internal/wire"
)

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

// CompactStateSize returns the byte length AppendStateTagged would
// produce, without building it (minus the tag byte).
func (a *Arena) CompactStateSize() int {
	size, _ := a.occupancyScan()
	return size
}

// AppendStateTagged appends the arena's cell state: the wire tag byte, then
// the run-length encoding of the exact-level cells, whose size is
// proportional to the non-zero state rather than the arena capacity.
// Configuration (shape, seeds) is not encoded: the decoder reconstructs it
// from the same Config.
func (a *Arena) AppendStateTagged(buf []byte) []byte {
	return appendCellRuns(wire.AppendTag(buf), a.cells)
}

// appendCellRuns is the compact arm: wire.AppendRuns' bytes exactly, from a
// direct walk of the cell array. Snapshots and payloads encode every bank,
// almost all of it zero cells, so the walk calls no per-cell accessor and
// the writer grows its buffer once per literal run.
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

// DecodeStateTagged reads one cell state written by AppendStateTagged into
// the arena, replacing its contents, and returns the remaining bytes. A
// shared-seed arena's digest becomes the digest of the decoded cells,
// accumulated as they are read.
func (a *Arena) DecodeStateTagged(data []byte) ([]byte, error) {
	a.Reset() // occupancy-guided zeroing: only occupied rows are touched
	rest, d, err := a.decodeCells(data, true)
	a.dig = d
	return rest, err
}

// MergeStateTagged folds one cell state directly into the arena — the
// coordinator's MergeBytes primitive: serialized per-site state is added
// cell-wise without materializing a second arena, and the work is
// proportional to the bytes, not the arena. The result is bit-identical to
// decoding into a scratch arena and Add-ing it, digest included.
func (a *Arena) MergeStateTagged(data []byte) ([]byte, error) {
	rest, d, err := a.decodeCells(data, false)
	a.dig = a.dig.Add(d)
	return rest, err
}

// decodeCells walks one cell-state payload, storing (replace) or adding
// every literal cell, and returns the unscaled digest of the cells read
// (zero in per-slot mode). On error the cells read so far stay applied and
// are covered by the returned digest.
func (a *Arena) decodeCells(data []byte, replace bool) ([]byte, Digest, error) {
	a.own() // after DecodeStateTagged's Reset, copies nothing: at most fresh zeroed cells
	rowCells := a.reps * a.levels
	var cd cellDigester
	if a.shared {
		cd = a.newCellDigester()
	}
	rest, err := wire.DecodeCells(data, len(a.cells), func(i int, w, s int64, f uint64) {
		if replace {
			a.cells[i] = acell{w: w, s: s, f: f}
		} else {
			cellAdd(&a.cells[i], w, s, f)
		}
		a.markSlot(i / rowCells)
		if a.shared {
			cd.add(i, w, s, f)
		}
	})
	d := cd.digest()
	if err != nil {
		return nil, d, fmt.Errorf("sketchcore: %w", err)
	}
	return rest, d, nil
}

// Footprint is the space report of a sketch layer: what it costs resident,
// how much of that is live state, and what it costs on the wire. Layers sum their children's reports with Accum; envelope headers
// (a few dozen bytes per sketch) are excluded.
type Footprint struct {
	// ResidentBytes is the in-memory size: cell arrays plus hash/table
	// state, as counted by the historical Words() accounting.
	ResidentBytes int64 `json:"resident_bytes"`
	// TotalCells and NonzeroCells report cell occupancy; their ratio is
	// what the run-length wire encoding and occupancy-guided merges exploit.
	TotalCells   int64 `json:"total_cells"`
	NonzeroCells int64 `json:"nonzero_cells"`
	// WireCompactBytes is the serialized cell-state size (tag bytes
	// included).
	WireCompactBytes int64 `json:"wire_compact_bytes"`
}

// Accum adds another layer's footprint into f.
func (f *Footprint) Accum(g Footprint) {
	f.ResidentBytes += g.ResidentBytes
	f.TotalCells += g.TotalCells
	f.NonzeroCells += g.NonzeroCells
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
		WireCompactBytes: int64(1 + compactSize),
	}
}
