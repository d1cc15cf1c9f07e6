package spanner

import (
	"encoding/binary"
	"fmt"

	"graphsketch/internal/hashing"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/wire"
)

// Wire format: magic "SPG1" — universe, seed, reps, buckets (u64 LE each),
// then the tagged run-length cell payload of the rep x bucket sampler grid
// (the shared internal/wire codec). Hashes and per-bucket l0 seeds are
// reconstructed from the seed, so the encoding carries only state — the
// distributed form of a spanner pass ships per-site sampler state to a
// coordinator that merges and then decodes one construction step.

var spgMagic = [4]byte{'S', 'P', 'G', '1'}

// newGroupSamplerShape reconstructs a sampler from its wire shape (bucket
// count rather than budget). buckets must be a groupBuckets output.
func newGroupSamplerShape(universe uint64, buckets int, seed uint64) *GroupSampler {
	gs := &GroupSampler{
		universe: universe,
		reps:     groupSamplerReps,
		buckets:  buckets,
		seed:     seed,
	}
	gs.hash = make([]hashing.Mixer, gs.reps)
	slotSeeds := make([]uint64, gs.reps*gs.buckets)
	for r := 0; r < gs.reps; r++ {
		gs.hash[r] = hashing.NewMixer(groupHashSeed(seed, r))
		for b := 0; b < gs.buckets; b++ {
			slotSeeds[r*gs.buckets+b] = groupSlotSeed(seed, r, b)
		}
	}
	gs.cells = sketchcore.New(sketchcore.Config{
		Slots:       gs.reps * gs.buckets,
		Universe:    universe,
		Reps:        bucketSamplerReps,
		SlotSeeds:   slotSeeds,
		DeferTables: true,
	})
	return gs
}

// appendHeader writes the SPG1 envelope header.
func (gs *GroupSampler) appendHeader(buf []byte) []byte {
	buf = append(buf, spgMagic[:]...)
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], gs.universe)
	binary.LittleEndian.PutUint64(hdr[8:], gs.seed)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(gs.reps))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(gs.buckets))
	return append(buf, hdr[:]...)
}

// MarshalBinaryCompact serializes the sampler: bytes proportional to its
// non-zero state — what a site ships when its share of the pass left the
// grid sparse.
func (gs *GroupSampler) MarshalBinaryCompact() ([]byte, error) {
	buf := make([]byte, 0, 4+32+1+gs.cells.CompactStateSize())
	buf = gs.appendHeader(buf)
	return gs.cells.AppendStateTagged(buf), nil
}

// decodeHeader validates an SPG1 header and returns its parameters and the
// remaining bytes.
func decodeHeader(data []byte) (universe, seed uint64, buckets int, rest []byte, err error) {
	if len(data) < 36 || [4]byte(data[0:4]) != spgMagic {
		return 0, 0, 0, nil, fmt.Errorf("spanner: no SPG1 header: %w", wire.ErrBadEncoding)
	}
	universe = binary.LittleEndian.Uint64(data[4:])
	seed = binary.LittleEndian.Uint64(data[12:])
	reps := binary.LittleEndian.Uint64(data[20:])
	bkt := binary.LittleEndian.Uint64(data[28:])
	if reps != groupSamplerReps {
		return 0, 0, 0, nil, fmt.Errorf("spanner: unsupported rep count %d: %w", reps, wire.ErrBadEncoding)
	}
	// groupBuckets outputs are O(budget) and real passes use budgets far
	// below 2^22; combined with the cell-budget check below this keeps a
	// corrupted count from driving a multi-GiB grid allocation.
	if bkt < uint64(groupBuckets(1)) || bkt > 1<<22 || bkt%2 != 0 {
		return 0, 0, 0, nil, fmt.Errorf("spanner: implausible bucket count %d: %w", bkt, wire.ErrBadEncoding)
	}
	levels := hashing.SamplerLevels(universe)
	if err := wire.CheckCellBudget(groupSamplerReps, int64(bkt), bucketSamplerReps, int64(levels)); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("spanner: declared shape exceeds decode budget: %w", wire.ErrBadEncoding)
	}
	return universe, seed, int(bkt), data[36:], nil
}

// UnmarshalBinary reconstructs the sampler (including mergeability) from
// its envelope.
func (gs *GroupSampler) UnmarshalBinary(data []byte) error {
	universe, seed, buckets, rest, err := decodeHeader(data)
	if err != nil {
		return err
	}
	fresh := newGroupSamplerShape(universe, buckets, seed)
	rest, err = fresh.cells.DecodeStateTagged(rest)
	if err != nil {
		return fmt.Errorf("spanner: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("spanner: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	*gs = *fresh
	return nil
}

// MergeBinary folds a serialized sampler (same parameters)
// directly into gs without materializing a second sampler — bit-identical
// to UnmarshalBinary + Add. On error the receiver may hold a partially
// folded prefix; discard it rather than retrying the same bytes.
func (gs *GroupSampler) MergeBinary(data []byte) error {
	universe, seed, buckets, rest, err := decodeHeader(data)
	if err != nil {
		return err
	}
	if universe != gs.universe || seed != gs.seed || buckets != gs.buckets {
		return fmt.Errorf("spanner: parameter mismatch: %w", wire.ErrBadEncoding)
	}
	rest, err = gs.cells.MergeStateTagged(rest)
	if err != nil {
		return fmt.Errorf("spanner: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("spanner: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	return nil
}
