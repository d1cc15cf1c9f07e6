package agm

import (
	"encoding/binary"
	"fmt"

	"graphsketch/internal/hashing"
	"graphsketch/internal/wire"
)

// Wire envelopes: magic, three u64 LE header fields, then the tagged
// run-length cell state of every bank, costing bytes proportional to the
// non-zero state — the payload a distributed site ships to the coordinator
// (Sec. 1.1), where per-site sketches are sparse. "AGM3" is a ForestSketch
// (n, seed, rounds), "AGE1" an EdgeConnectSketch (n, k, seed), "AGT1" an
// MSTSketch (n, classes, seed).
var (
	fsMagic  = [4]byte{'A', 'G', 'M', '3'}
	ecMagic  = [4]byte{'A', 'G', 'E', '1'}
	mstMagic = [4]byte{'A', 'G', 'T', '1'}
)

func appendHeader(buf []byte, magic [4]byte, a, b, c uint64) []byte {
	buf = append(buf, magic[:]...)
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], a)
	binary.LittleEndian.PutUint64(hdr[8:], b)
	binary.LittleEndian.PutUint64(hdr[16:], c)
	return append(buf, hdr[:]...)
}

// MarshalBinaryCompact emits the AGM3 envelope.
func (fs *ForestSketch) MarshalBinaryCompact() ([]byte, error) {
	buf := appendHeader(nil, fsMagic, uint64(fs.n), fs.seed, uint64(fs.rounds))
	return fs.AppendState(buf), nil
}

// decodeFSHeader validates a ForestSketch envelope and returns its fields
// plus the payload.
func decodeFSHeader(data []byte) (n int, seed uint64, rounds int, rest []byte, err error) {
	if len(data) < 28 || [4]byte(data[0:4]) != fsMagic {
		return 0, 0, 0, nil, fmt.Errorf("agm: no AGM3 header: %w", wire.ErrBadEncoding)
	}
	n = int(binary.LittleEndian.Uint64(data[4:]))
	seed = binary.LittleEndian.Uint64(data[12:])
	rounds = int(binary.LittleEndian.Uint64(data[20:]))
	if n < 1 || n > 1<<24 || rounds != boruvkaRounds(n) {
		return 0, 0, 0, nil, fmt.Errorf("agm: implausible shape n=%d rounds=%d: %w", n, rounds, wire.ErrBadEncoding)
	}
	if err := CheckForestBudget(n); err != nil {
		return 0, 0, 0, nil, err
	}
	return n, seed, rounds, data[28:], nil
}

// CheckForestBudget reports wire.ErrBadEncoding when ForestSketches on n
// vertices, times the copies factors, would hold more cells than the wire
// decode budget. Envelope decoders call it on their header-declared shape
// BEFORE constructing anything — individually plausible header fields can
// still multiply into an allocation no real deployment would construct.
func CheckForestBudget(n int, copies ...int) error {
	levels := hashing.SamplerLevels(uint64(n) * uint64(n))
	dims := []int64{int64(boruvkaRounds(n)), int64(n), samplerReps, int64(levels)}
	for _, c := range copies {
		dims = append(dims, int64(c))
	}
	if err := wire.CheckCellBudget(dims...); err != nil {
		return fmt.Errorf("agm: declared shape exceeds decode budget: %w", wire.ErrBadEncoding)
	}
	return nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for the AGM3
// envelope.
func (fs *ForestSketch) UnmarshalBinary(data []byte) error {
	n, seed, _, rest, err := decodeFSHeader(data)
	if err != nil {
		return err
	}
	fresh := NewForestSketch(n, seed)
	if rest, err = fresh.DecodeState(rest); err != nil {
		return fmt.Errorf("agm: bad arena state: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("agm: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	*fs = *fresh
	return nil
}

// MergeBinary folds a serialized ForestSketch directly
// into fs without materializing a second sketch — the coordinator's
// aggregation primitive. The encoded sketch must have been built with the
// same (n, seed); an error leaves fs unspecified only if the payload was
// truncated mid-bank (callers treat errors as fatal to the merge).
func (fs *ForestSketch) MergeBinary(data []byte) error {
	n, seed, rounds, rest, err := decodeFSHeader(data)
	if err != nil {
		return err
	}
	if n != fs.n || seed != fs.seed || rounds != fs.rounds {
		return fmt.Errorf("agm: merge parameter mismatch (n=%d seed=%d rounds=%d vs n=%d seed=%d rounds=%d): %w",
			n, seed, rounds, fs.n, fs.seed, fs.rounds, wire.ErrBadEncoding)
	}
	if rest, err = fs.MergeState(rest); err != nil {
		return fmt.Errorf("agm: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("agm: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	return nil
}

// MarshalBinaryCompact emits the AGE1 envelope: (n, k, seed) header, then
// the tagged state of all k forest banks.
func (ec *EdgeConnectSketch) MarshalBinaryCompact() ([]byte, error) {
	buf := appendHeader(nil, ecMagic, uint64(ec.n), uint64(ec.k), ec.seed)
	return ec.AppendState(buf), nil
}

func decodeECHeader(data []byte) (n, k int, seed uint64, rest []byte, err error) {
	if len(data) < 28 || [4]byte(data[0:4]) != ecMagic {
		return 0, 0, 0, nil, fmt.Errorf("agm: no AGE1 header: %w", wire.ErrBadEncoding)
	}
	n = int(binary.LittleEndian.Uint64(data[4:]))
	k = int(binary.LittleEndian.Uint64(data[12:]))
	seed = binary.LittleEndian.Uint64(data[20:])
	if n < 1 || n > 1<<24 || k < 1 || k > 1<<16 {
		return 0, 0, 0, nil, fmt.Errorf("agm: implausible shape n=%d k=%d: %w", n, k, wire.ErrBadEncoding)
	}
	if err := CheckForestBudget(n, k); err != nil {
		return 0, 0, 0, nil, err
	}
	return n, k, seed, data[28:], nil
}

// UnmarshalBinary reconstructs an EdgeConnectSketch from its envelope.
func (ec *EdgeConnectSketch) UnmarshalBinary(data []byte) error {
	n, k, seed, rest, err := decodeECHeader(data)
	if err != nil {
		return err
	}
	fresh := NewEdgeConnectSketch(n, k, seed)
	if rest, err = fresh.DecodeState(rest); err != nil {
		return fmt.Errorf("agm: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("agm: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	*ec = *fresh
	return nil
}

// MergeBinary folds a serialized EdgeConnectSketch into ec (same n, k,
// seed required).
func (ec *EdgeConnectSketch) MergeBinary(data []byte) error {
	n, k, seed, rest, err := decodeECHeader(data)
	if err != nil {
		return err
	}
	if n != ec.n || k != ec.k || seed != ec.seed {
		return fmt.Errorf("agm: merge parameter mismatch: %w", wire.ErrBadEncoding)
	}
	if rest, err = ec.MergeState(rest); err != nil {
		return fmt.Errorf("agm: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("agm: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	return nil
}

// MarshalBinaryCompact emits the AGT1 envelope: (n, classes, seed) header,
// then the tagged state of every prefix class.
func (m *MSTSketch) MarshalBinaryCompact() ([]byte, error) {
	buf := appendHeader(nil, mstMagic, uint64(m.n), uint64(m.classes), m.seed)
	return m.AppendState(buf), nil
}

func decodeMSTHeader(data []byte) (n, classes int, seed uint64, rest []byte, err error) {
	if len(data) < 28 || [4]byte(data[0:4]) != mstMagic {
		return 0, 0, 0, nil, fmt.Errorf("agm: no AGT1 header: %w", wire.ErrBadEncoding)
	}
	n = int(binary.LittleEndian.Uint64(data[4:]))
	classes = int(binary.LittleEndian.Uint64(data[12:]))
	seed = binary.LittleEndian.Uint64(data[20:])
	if n < 1 || n > 1<<24 || classes < 1 || classes > 64 {
		return 0, 0, 0, nil, fmt.Errorf("agm: implausible shape n=%d classes=%d: %w", n, classes, wire.ErrBadEncoding)
	}
	if err := CheckForestBudget(n, classes); err != nil {
		return 0, 0, 0, nil, err
	}
	return n, classes, seed, data[28:], nil
}

// UnmarshalBinary reconstructs an MSTSketch from its envelope.
func (m *MSTSketch) UnmarshalBinary(data []byte) error {
	n, classes, seed, rest, err := decodeMSTHeader(data)
	if err != nil {
		return err
	}
	fresh := newMSTSketchClasses(n, classes, seed)
	if rest, err = fresh.DecodeState(rest); err != nil {
		return fmt.Errorf("agm: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("agm: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	*m = *fresh
	return nil
}

// MergeBinary folds a serialized MSTSketch into m (same parameters
// required).
func (m *MSTSketch) MergeBinary(data []byte) error {
	n, classes, seed, rest, err := decodeMSTHeader(data)
	if err != nil {
		return err
	}
	if n != m.n || classes != m.classes || seed != m.seed {
		return fmt.Errorf("agm: merge parameter mismatch: %w", wire.ErrBadEncoding)
	}
	if rest, err = m.MergeState(rest); err != nil {
		return fmt.Errorf("agm: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("agm: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	return nil
}
