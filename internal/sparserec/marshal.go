package sparserec

import (
	"encoding/binary"
	"fmt"

	"graphsketch/internal/hashing"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/wire"
)

// srkMagic opens the sketch envelope: (k, seed, rows, m) u64 LE, then the
// tagged run-length cell payload, with the fingerprint base reconstructed
// from the seed.
var srkMagic = [4]byte{'S', 'R', 'K', '2'}

// cellAt serves wire.AppendRuns/RunsSize over the sketch's row-major cells.
func (s *Sketch) cellAt(i int) (int64, int64, uint64) {
	c := &s.cells[i/s.m][i%s.m]
	w, sv, f := c.State()
	return w, sv, f
}

// AppendCells appends the tagged run-length encoding of the sketch's cell
// state (headerless — the envelope, or a parent sketch like l0norm, carries
// the construction parameters).
func (s *Sketch) AppendCells(buf []byte) []byte {
	return wire.AppendRuns(wire.AppendTag(buf), s.rows*s.m, s.cellAt)
}

// decodeCells reads one tagged cell payload. merge adds into the existing
// cells instead of replacing them.
func (s *Sketch) decodeCells(data []byte, merge bool) ([]byte, error) {
	if !merge {
		for r := range s.cells {
			for b := range s.cells[r] {
				s.cells[r][b].Reset()
			}
		}
	}
	rest, err := wire.DecodeCells(data, s.rows*s.m, func(i int, w, sv int64, f uint64) {
		c := &s.cells[i/s.m][i%s.m]
		if merge {
			c.AddState(w, sv, f)
		} else {
			c.SetState(w, sv, f)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("sparserec: %w", err)
	}
	return rest, nil
}

// DecodeCells reads one tagged cell payload produced by AppendCells,
// replacing the sketch's cell state, and returns the remaining bytes.
func (s *Sketch) DecodeCells(data []byte) ([]byte, error) {
	return s.decodeCells(data, false)
}

// MergeCells folds one tagged cell payload into the sketch's state without
// materializing a second sketch (the wire-level merge of Sec. 1.1's
// distributed streams).
func (s *Sketch) MergeCells(data []byte) ([]byte, error) {
	return s.decodeCells(data, true)
}

// Footprint reports the sketch's space accounting in one pass over the
// cells (see sketchcore.Footprint).
func (s *Sketch) Footprint() Footprint {
	n := s.rows * s.m
	rs := wire.NewRunsSizer(n)
	nonzero := 0
	for i := 0; i < n; i++ {
		w, sv, f := s.cellAt(i)
		rs.Cell(w, sv, f)
		if w != 0 || sv != 0 || f != 0 {
			nonzero++
		}
	}
	return Footprint{
		ResidentBytes:    int64(s.Words()) * 8,
		TotalCells:       int64(n),
		NonzeroCells:     int64(nonzero),
		WireCompactBytes: int64(1 + rs.Size()),
	}
}

// MarshalBinaryCompact emits the SRK2 envelope with the compact cell
// payload: bytes proportional to the non-zero state.
func (s *Sketch) MarshalBinaryCompact() ([]byte, error) {
	buf := append([]byte(nil), srkMagic[:]...)
	buf = s.appendHeader(buf)
	return s.AppendCells(buf), nil
}

func (s *Sketch) appendHeader(buf []byte) []byte {
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(s.k))
	binary.LittleEndian.PutUint64(hdr[8:], s.seed)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(s.rows))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(s.m))
	return append(buf, hdr[:]...)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for the SRK2
// envelope.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 36 || [4]byte(data[0:4]) != srkMagic {
		return fmt.Errorf("sparserec: no SRK2 header: %w", wire.ErrBadEncoding)
	}
	k := int(binary.LittleEndian.Uint64(data[4:]))
	seed := binary.LittleEndian.Uint64(data[12:])
	rows := int(binary.LittleEndian.Uint64(data[20:]))
	m := int(binary.LittleEndian.Uint64(data[28:]))
	if k < 1 || k > 1<<20 || rows < 1 || rows > 64 || m < 1 || m > 1<<24 {
		return fmt.Errorf("sparserec: implausible shape k=%d rows=%d m=%d: %w", k, rows, m, wire.ErrBadEncoding)
	}
	if err := CheckBankBudget(1, k, 1); err != nil {
		return err
	}
	fresh := New(k, seed)
	if fresh.rows != rows || fresh.m != m {
		return fmt.Errorf("sparserec: shape mismatch for k=%d: %w", k, wire.ErrBadEncoding)
	}
	rest, err := fresh.DecodeCells(data[36:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("sparserec: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	*s = *fresh
	return nil
}

// CheckBankBudget reports wire.ErrBadEncoding when copies banks of n sketches
// with budget k would exceed the wire decode cell budget: the check an
// envelope decoder makes on header-declared shapes before building them.
func CheckBankBudget(n, k, copies int) error {
	rows, m := tableShape(k)
	if err := wire.CheckCellBudget(int64(copies), int64(n), int64(rows), int64(m)); err != nil {
		return fmt.Errorf("sparserec: declared shape exceeds decode budget: %w", wire.ErrBadEncoding)
	}
	return nil
}

// Footprint aliases the shared space report, so bank and sketch reports
// accumulate directly into composite sketches' sketchcore.Footprint sums.
type Footprint = sketchcore.Footprint

// bankCellAt serves wire.AppendRuns/RunsSize over the bank's flat cells.
func (b *Bank) bankCellAt(i int) (int64, int64, uint64) {
	c := &b.cells[i]
	return c.w, c.s, c.f
}

// AppendStateTagged appends the tagged run-length encoding of the bank's
// cell state (headerless; the owning sketch's envelope carries n, k, seed).
func (b *Bank) AppendStateTagged(buf []byte) []byte {
	return wire.AppendRuns(wire.AppendTag(buf), len(b.cells), b.bankCellAt)
}

// decodeState reads one tagged bank payload; merge folds instead of
// replacing.
func (b *Bank) decodeState(data []byte, merge bool) ([]byte, error) {
	if !merge {
		b.Reset() // occupancy-guided zeroing
	}
	rowCells := b.rows * b.m
	rest, err := wire.DecodeCells(data, len(b.cells), func(i int, w, s int64, f uint64) {
		if merge {
			c := &b.cells[i]
			c.w += w
			c.s += s
			c.f = hashing.AddMod61(c.f, f)
		} else {
			b.cells[i] = bcell{w: w, s: s, f: f}
		}
		b.markNode(i / rowCells)
	})
	if err != nil {
		return nil, fmt.Errorf("sparserec: %w", err)
	}
	return rest, nil
}

// DecodeStateTagged reads one tagged bank payload produced by
// AppendStateTagged, replacing the bank's state.
func (b *Bank) DecodeStateTagged(data []byte) ([]byte, error) {
	return b.decodeState(data, false)
}

// MergeStateTagged folds one tagged bank payload into the bank without
// materializing a second bank.
func (b *Bank) MergeStateTagged(data []byte) ([]byte, error) {
	return b.decodeState(data, true)
}

// Footprint reports the bank's space accounting. Both the non-zero count
// and the compact-size dry pass skip unoccupied node rows.
func (b *Bank) Footprint() Footprint {
	rowCells := b.rows * b.m
	rs := wire.NewRunsSizer(len(b.cells))
	nonzero := 0
	for wi, w := range b.occ {
		lo := wi << 6
		hi := lo + 64
		if hi > b.n {
			hi = b.n
		}
		if w == 0 {
			rs.Zeros((hi - lo) * rowCells)
			continue
		}
		for node := lo; node < hi; node++ {
			if w&(1<<(uint(node)&63)) == 0 {
				rs.Zeros(rowCells)
				continue
			}
			base := node * rowCells
			for j := 0; j < rowCells; j++ {
				c := &b.cells[base+j]
				rs.Cell(c.w, c.s, c.f)
				if c.w != 0 || c.s != 0 || c.f != 0 {
					nonzero++
				}
			}
		}
	}
	return Footprint{
		ResidentBytes:    int64(b.Words()) * 8,
		TotalCells:       int64(len(b.cells)),
		NonzeroCells:     int64(nonzero),
		WireCompactBytes: int64(1 + rs.Size()),
	}
}
