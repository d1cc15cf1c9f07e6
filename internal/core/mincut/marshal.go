package mincut

import (
	"encoding/binary"
	"fmt"
	"math"

	"graphsketch/internal/agm"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/wire"
)

// Wire envelope: magic "MCS1", the full filled Config (N, Epsilon bits, K,
// Levels, Seed as u64 LE), then the tagged state of every subsampling
// level's k-EDGECONNECT sketch. Configuration round-trips exactly, so a
// decoded sketch is mergeable with the original.
var mcMagic = [4]byte{'M', 'C', 'S', '1'}

// MarshalBinaryCompact serializes the sketch — bytes proportional to its
// non-zero state, the per-site coordinator payload.
func (s *Sketch) MarshalBinaryCompact() ([]byte, error) {
	buf := append([]byte(nil), mcMagic[:]...)
	var hdr [40]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(s.cfg.N))
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(s.cfg.Epsilon))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(s.cfg.K))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(s.cfg.Levels))
	binary.LittleEndian.PutUint64(hdr[32:], s.cfg.Seed)
	buf = append(buf, hdr[:]...)
	for _, ec := range s.ecs {
		buf = ec.AppendState(buf)
	}
	return buf, nil
}

func decodeHeader(data []byte) (Config, []byte, error) {
	if len(data) < 44 || [4]byte(data[0:4]) != mcMagic {
		return Config{}, nil, fmt.Errorf("mincut: no MCS1 header: %w", wire.ErrBadEncoding)
	}
	cfg := Config{
		N:       int(binary.LittleEndian.Uint64(data[4:])),
		Epsilon: math.Float64frombits(binary.LittleEndian.Uint64(data[12:])),
		K:       int(binary.LittleEndian.Uint64(data[20:])),
		Levels:  int(binary.LittleEndian.Uint64(data[28:])),
		Seed:    binary.LittleEndian.Uint64(data[36:]),
	}
	if cfg.N < 1 || cfg.N > 1<<24 || cfg.K < 1 || cfg.K > 1<<16 ||
		cfg.Levels < 1 || cfg.Levels > 128 || !(cfg.Epsilon > 0) {
		return Config{}, nil, fmt.Errorf("mincut: implausible config %+v: %w", cfg, wire.ErrBadEncoding)
	}
	if err := agm.CheckForestBudget(cfg.N, cfg.Levels, cfg.K); err != nil {
		return Config{}, nil, fmt.Errorf("mincut: %w", err)
	}
	return cfg, data[44:], nil
}

// UnmarshalBinary reconstructs the sketch from its envelope.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	cfg, rest, err := decodeHeader(data)
	if err != nil {
		return err
	}
	fresh := New(cfg)
	if fresh.cfg != cfg {
		return fmt.Errorf("mincut: config does not round-trip: %w", wire.ErrBadEncoding)
	}
	for _, ec := range fresh.ecs {
		if rest, err = ec.DecodeState(rest); err != nil {
			return fmt.Errorf("mincut: %w", err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("mincut: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	*s = *fresh
	return nil
}

// MergeBinary folds a serialized sketch (same Config required) directly
// into s without materializing a second sketch.
func (s *Sketch) MergeBinary(data []byte) error {
	cfg, rest, err := decodeHeader(data)
	if err != nil {
		return err
	}
	if cfg != s.cfg {
		return fmt.Errorf("mincut: merge config mismatch: %w", wire.ErrBadEncoding)
	}
	s.decoded = false
	for _, ec := range s.ecs {
		if rest, err = ec.MergeState(rest); err != nil {
			return fmt.Errorf("mincut: %w", err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("mincut: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	return nil
}

// MergeMany folds k sketches into s level by level in one occupancy-guided
// pass each; bit-identical to sequential pairwise Add.
func (s *Sketch) MergeMany(others []*Sketch) {
	for _, o := range others {
		if s.cfg != o.cfg {
			panic("mincut: merging incompatible sketches")
		}
	}
	s.decoded = false
	srcs := make([]*agm.EdgeConnectSketch, len(others))
	for i := range s.ecs {
		for j, o := range others {
			srcs[j] = o.ecs[i]
		}
		s.ecs[i].MergeMany(srcs)
	}
}

// Footprint reports space accounting summed over the level sketches.
func (s *Sketch) Footprint() sketchcore.Footprint {
	var f sketchcore.Footprint
	for _, ec := range s.ecs {
		f.Accum(ec.Footprint())
	}
	return f
}
