package subgraph

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"graphsketch/internal/sketchcore"
	"graphsketch/internal/wire"
)

// Wire envelope: magic "SGS1", (n, k, samples, seed) u64 LE, then the
// tagged state of the per-slot-seeded sampler arena followed by the
// support-size estimator's recovery sketches. All hashes and per-slot
// seeds are reconstructed from the header.
var sgMagic = [4]byte{'S', 'G', 'S', '1'}

// MarshalBinaryCompact serializes the sketch: bytes proportional to its
// non-zero state.
func (s *Sketch) MarshalBinaryCompact() ([]byte, error) {
	buf := append([]byte(nil), sgMagic[:]...)
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(s.n))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(s.k))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(s.samples))
	binary.LittleEndian.PutUint64(hdr[24:], s.seed)
	buf = append(buf, hdr[:]...)
	buf = s.samplers.AppendStateTagged(buf)
	return s.norm.AppendState(buf), nil
}

func decodeHeader(data []byte) (n, k, samples int, seed uint64, rest []byte, err error) {
	if len(data) < 36 || [4]byte(data[0:4]) != sgMagic {
		return 0, 0, 0, 0, nil, fmt.Errorf("subgraph: no SGS1 header: %w", wire.ErrBadEncoding)
	}
	n = int(binary.LittleEndian.Uint64(data[4:]))
	k = int(binary.LittleEndian.Uint64(data[12:]))
	samples = int(binary.LittleEndian.Uint64(data[20:]))
	seed = binary.LittleEndian.Uint64(data[28:])
	if n < 1 || n > 1<<20 || k < 2 || k > 5 || samples < 1 || samples > 1<<20 {
		return 0, 0, 0, 0, nil, fmt.Errorf("subgraph: implausible shape n=%d k=%d samples=%d: %w", n, k, samples, wire.ErrBadEncoding)
	}
	// The sampler universe C(n, k) is below n^k (or wraps in 64 bits), which
	// bounds its level count without building New's binomial table.
	levels := min(k*bits.Len(uint(n))+1, 65)
	if err := wire.CheckCellBudget(int64(samples), samplerRepsSubgraph, int64(levels)); err != nil {
		return 0, 0, 0, 0, nil, fmt.Errorf("subgraph: declared shape exceeds decode budget: %w", wire.ErrBadEncoding)
	}
	return n, k, samples, seed, data[36:], nil
}

// UnmarshalBinary reconstructs the sketch from its envelope.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	n, k, samples, seed, rest, err := decodeHeader(data)
	if err != nil {
		return err
	}
	fresh := New(n, k, samples, seed)
	if rest, err = fresh.samplers.DecodeStateTagged(rest); err != nil {
		return fmt.Errorf("subgraph: %w", err)
	}
	if rest, err = fresh.norm.DecodeState(rest); err != nil {
		return fmt.Errorf("subgraph: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("subgraph: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	*s = *fresh
	return nil
}

// MergeBinary folds a serialized sketch (same parameters) into s.
func (s *Sketch) MergeBinary(data []byte) error {
	n, k, samples, seed, rest, err := decodeHeader(data)
	if err != nil {
		return err
	}
	if n != s.n || k != s.k || samples != s.samples || seed != s.seed {
		return fmt.Errorf("subgraph: merge parameter mismatch: %w", wire.ErrBadEncoding)
	}
	s.decoded = false
	if rest, err = s.samplers.MergeStateTagged(rest); err != nil {
		return fmt.Errorf("subgraph: %w", err)
	}
	if rest, err = s.norm.MergeState(rest); err != nil {
		return fmt.Errorf("subgraph: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("subgraph: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	return nil
}

// MergeMany folds k sketches into s: the sampler arenas in one
// occupancy-guided pass, the norm estimators pairwise (they are small);
// bit-identical to sequential pairwise Add.
func (s *Sketch) MergeMany(others []*Sketch) {
	for _, o := range others {
		if s.n != o.n || s.k != o.k || s.samples != o.samples || s.seed != o.seed {
			panic("subgraph: merging incompatible sketches")
		}
	}
	s.decoded = false
	arenas := make([]*sketchcore.Arena, len(others))
	for i, o := range others {
		arenas[i] = o.samplers
	}
	s.samplers.MergeMany(arenas)
	for _, o := range others {
		s.norm.Add(o.norm)
	}
}

// Footprint reports space accounting: sampler arena plus norm estimator.
func (s *Sketch) Footprint() sketchcore.Footprint {
	f := s.samplers.Footprint()
	f.Accum(s.norm.Footprint())
	return f
}
