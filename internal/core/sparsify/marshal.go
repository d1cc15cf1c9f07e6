package sparsify

import (
	"encoding/binary"
	"fmt"
	"math"

	"graphsketch/internal/agm"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/sparserec"
	"graphsketch/internal/wire"
)

// Wire envelopes: magic + the full filled config (floats as IEEE bits) +
// the tagged state of every constituent bank, leaves encoded by
// sketchcore's tagged cell codec. "SPS1" is SIMPLE-SPARSIFICATION (Fig 2),
// "SPB1" the Fig 3 sketch (rough Simple + per-level recovery banks),
// "SPW1" the Sec. 3.5 weighted sparsifier (per-class Simple states).
var (
	simpleMagic   = [4]byte{'S', 'P', 'S', '1'}
	betterMagic   = [4]byte{'S', 'P', 'B', '1'}
	weightedMagic = [4]byte{'S', 'P', 'W', '1'}
)

// ---------------------------------------------------------------------------
// Simple (Fig 2)
// ---------------------------------------------------------------------------

// AppendState appends the tagged state of every level's k-EDGECONNECT
// sketch (headerless; used by the envelope and by the composite sketches
// that embed a Simple).
func (s *Simple) AppendState(buf []byte) []byte {
	for _, ec := range s.ecs {
		buf = ec.AppendState(buf)
	}
	return buf
}

// DecodeState reads the state written by AppendState, replacing contents.
func (s *Simple) DecodeState(data []byte) ([]byte, error) {
	s.decoded = false
	var err error
	for _, ec := range s.ecs {
		if data, err = ec.DecodeState(data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// MergeState folds tagged state directly into the level sketches.
func (s *Simple) MergeState(data []byte) ([]byte, error) {
	s.decoded = false
	var err error
	for _, ec := range s.ecs {
		if data, err = ec.MergeState(data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// NumBanks reports the sketch's digestable bank count: one bank per
// sampling level, in level order — the granularity the service's digest
// tree and delta sync address.
func (s *Simple) NumBanks() int { return len(s.ecs) }

// AppendBankState appends one level bank's headerless tagged state —
// exactly the bytes AppendState writes for that level.
func (s *Simple) AppendBankState(buf []byte, bank int) ([]byte, error) {
	if bank < 0 || bank >= len(s.ecs) {
		return nil, fmt.Errorf("sparsify: bank %d out of [0,%d): %w", bank, len(s.ecs), wire.ErrBadEncoding)
	}
	return s.ecs[bank].AppendState(buf), nil
}

// ReplaceBankState replaces one level bank's contents with tagged state
// bytes produced by AppendBankState on a same-config sketch, consuming data
// fully. Banks are headerless, so cross-level installs are the caller's to
// prevent (the service checks the assembled state's digest root).
//
// ReplaceBankState and MergeBankState write only their bank, so distinct
// banks may be written from concurrent goroutines. They leave the decode
// cache alone for that reason: the caller calls Invalidate once, outside
// any fan-out, before a pass of bank writes.
func (s *Simple) ReplaceBankState(bank int, data []byte) error {
	if bank < 0 || bank >= len(s.ecs) {
		return fmt.Errorf("sparsify: bank %d out of [0,%d): %w", bank, len(s.ecs), wire.ErrBadEncoding)
	}
	rest, err := s.ecs[bank].DecodeState(data)
	if err != nil {
		return fmt.Errorf("sparsify: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("sparsify: %d trailing bytes after bank %d: %w", len(rest), bank, wire.ErrBadEncoding)
	}
	return nil
}

// MergeBankState folds tagged state bytes produced by AppendBankState on a
// same-config sketch into one level bank, consuming data fully.
func (s *Simple) MergeBankState(bank int, data []byte) error {
	if bank < 0 || bank >= len(s.ecs) {
		return fmt.Errorf("sparsify: bank %d out of [0,%d): %w", bank, len(s.ecs), wire.ErrBadEncoding)
	}
	rest, err := s.ecs[bank].MergeState(data)
	if err != nil {
		return fmt.Errorf("sparsify: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("sparsify: %d trailing bytes after bank %d: %w", len(rest), bank, wire.ErrBadEncoding)
	}
	return nil
}

// Invalidate drops the decode cache, so the next Sparsify or MinCut
// decodes the current state. Bank writes (ReplaceBankState, MergeBankState) need it.
func (s *Simple) Invalidate() { s.decoded = false }

// BankArenas returns one level bank's arenas in wire order: the cells
// AppendBankState encodes, whose maintained digests (sketchcore.Digest)
// sum to the bank's. bank must be in [0, NumBanks()).
func (s *Simple) BankArenas(bank int) []*sketchcore.Arena { return s.ecs[bank].AppendArenas(nil) }

// MergeMany folds k Simple sketches level by level in one occupancy-guided
// pass each; bit-identical to sequential pairwise Add.
func (s *Simple) MergeMany(others []*Simple) {
	for _, o := range others {
		if s.cfg != o.cfg {
			panic("sparsify: merging incompatible Simple sketches")
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
func (s *Simple) Footprint() sketchcore.Footprint {
	var f sketchcore.Footprint
	for _, ec := range s.ecs {
		f.Accum(ec.Footprint())
	}
	return f
}

func appendSimpleHeader(buf []byte, cfg SimpleConfig) []byte {
	var hdr [48]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(cfg.N))
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(cfg.Epsilon))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(cfg.K))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(cfg.KForests))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(cfg.Levels))
	binary.LittleEndian.PutUint64(hdr[40:], cfg.Seed)
	return append(buf, hdr[:]...)
}

func decodeSimpleHeader(data []byte) (SimpleConfig, []byte, error) {
	if len(data) < 48 {
		return SimpleConfig{}, nil, fmt.Errorf("sparsify: short SPS1 header: %w", wire.ErrBadEncoding)
	}
	cfg := SimpleConfig{
		N:        int(binary.LittleEndian.Uint64(data[0:])),
		Epsilon:  math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
		K:        int(binary.LittleEndian.Uint64(data[16:])),
		KForests: int(binary.LittleEndian.Uint64(data[24:])),
		Levels:   int(binary.LittleEndian.Uint64(data[32:])),
		Seed:     binary.LittleEndian.Uint64(data[40:]),
	}
	if cfg.N < 1 || cfg.N > 1<<24 || cfg.K < 1 || cfg.K > 1<<24 ||
		cfg.KForests < 1 || cfg.KForests > 1<<16 || cfg.Levels < 1 || cfg.Levels > 128 ||
		!(cfg.Epsilon > 0) {
		return SimpleConfig{}, nil, fmt.Errorf("sparsify: implausible Simple config: %w", wire.ErrBadEncoding)
	}
	if err := cfg.checkBudget(); err != nil {
		return SimpleConfig{}, nil, err
	}
	return cfg, data[48:], nil
}

// checkBudget rejects a header-declared Simple shape, times copies, whose
// cells would exceed the wire decode budget, before NewSimple allocates it.
func (c SimpleConfig) checkBudget(copies ...int) error {
	c.fill()
	if err := agm.CheckForestBudget(c.N, append(copies, c.Levels, c.KForests)...); err != nil {
		return fmt.Errorf("sparsify: %w", err)
	}
	return nil
}

// MarshalBinaryCompact serializes the sketch: magic, config, then every
// level's bank state.
func (s *Simple) MarshalBinaryCompact() ([]byte, error) {
	buf := append([]byte(nil), simpleMagic[:]...)
	buf = appendSimpleHeader(buf, s.cfg)
	return s.AppendState(buf), nil
}

// UnmarshalBinary reconstructs the sketch from its envelope.
func (s *Simple) UnmarshalBinary(data []byte) error {
	if len(data) < 4 || [4]byte(data[0:4]) != simpleMagic {
		return fmt.Errorf("sparsify: no SPS1 header: %w", wire.ErrBadEncoding)
	}
	cfg, rest, err := decodeSimpleHeader(data[4:])
	if err != nil {
		return err
	}
	fresh := NewSimple(cfg)
	if fresh.cfg != cfg {
		return fmt.Errorf("sparsify: config does not round-trip: %w", wire.ErrBadEncoding)
	}
	if rest, err = fresh.DecodeState(rest); err != nil {
		return fmt.Errorf("sparsify: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("sparsify: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	*s = *fresh
	return nil
}

// MergeBinary folds a serialized Simple sketch (same config) into s.
func (s *Simple) MergeBinary(data []byte) error {
	if len(data) < 4 || [4]byte(data[0:4]) != simpleMagic {
		return fmt.Errorf("sparsify: no SPS1 header: %w", wire.ErrBadEncoding)
	}
	cfg, rest, err := decodeSimpleHeader(data[4:])
	if err != nil {
		return err
	}
	if cfg != s.cfg {
		return fmt.Errorf("sparsify: merge config mismatch: %w", wire.ErrBadEncoding)
	}
	if rest, err = s.MergeState(rest); err != nil {
		return fmt.Errorf("sparsify: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("sparsify: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Sketch (Fig 3, "Better")
// ---------------------------------------------------------------------------

// MarshalBinaryCompact serializes the Fig 3 sketch: magic, config, the
// rough Simple's state, then every level's recovery-bank state.
func (s *Sketch) MarshalBinaryCompact() ([]byte, error) {
	buf := append([]byte(nil), betterMagic[:]...)
	var hdr [48]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(s.cfg.N))
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(s.cfg.Epsilon))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(s.cfg.RecoveryK))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(s.cfg.RoughK))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(s.cfg.Levels))
	binary.LittleEndian.PutUint64(hdr[40:], s.cfg.Seed)
	buf = append(buf, hdr[:]...)
	buf = s.rough.AppendState(buf)
	for _, b := range s.nodeRec {
		buf = b.AppendStateTagged(buf)
	}
	return buf, nil
}

func decodeBetterHeader(data []byte) (Config, []byte, error) {
	if len(data) < 52 || [4]byte(data[0:4]) != betterMagic {
		return Config{}, nil, fmt.Errorf("sparsify: no SPB1 header: %w", wire.ErrBadEncoding)
	}
	cfg := Config{
		N:         int(binary.LittleEndian.Uint64(data[4:])),
		Epsilon:   math.Float64frombits(binary.LittleEndian.Uint64(data[12:])),
		RecoveryK: int(binary.LittleEndian.Uint64(data[20:])),
		RoughK:    int(binary.LittleEndian.Uint64(data[28:])),
		Levels:    int(binary.LittleEndian.Uint64(data[36:])),
		Seed:      binary.LittleEndian.Uint64(data[44:]),
	}
	if cfg.N < 1 || cfg.N > 1<<24 || cfg.RecoveryK < 1 || cfg.RecoveryK > 1<<20 ||
		cfg.RoughK < 0 || cfg.Levels < 1 || cfg.Levels > 128 || !(cfg.Epsilon > 0) {
		return Config{}, nil, fmt.Errorf("sparsify: implausible Fig 3 config: %w", wire.ErrBadEncoding)
	}
	if err := cfg.roughConfig().checkBudget(); err != nil {
		return Config{}, nil, err
	}
	if err := sparserec.CheckBankBudget(cfg.N, cfg.RecoveryK, cfg.Levels); err != nil {
		return Config{}, nil, fmt.Errorf("sparsify: %w", err)
	}
	return cfg, data[52:], nil
}

// decodeOrMerge runs the shared walk over a Fig 3 payload.
func (s *Sketch) decodeOrMerge(rest []byte, merge bool) ([]byte, error) {
	var err error
	if merge {
		rest, err = s.rough.MergeState(rest)
	} else {
		rest, err = s.rough.DecodeState(rest)
	}
	if err != nil {
		return nil, err
	}
	for _, b := range s.nodeRec {
		if merge {
			rest, err = b.MergeStateTagged(rest)
		} else {
			rest, err = b.DecodeStateTagged(rest)
		}
		if err != nil {
			return nil, err
		}
	}
	return rest, nil
}

// UnmarshalBinary reconstructs the sketch from its envelope.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	cfg, rest, err := decodeBetterHeader(data)
	if err != nil {
		return err
	}
	fresh := New(cfg)
	if fresh.cfg != cfg {
		return fmt.Errorf("sparsify: config does not round-trip: %w", wire.ErrBadEncoding)
	}
	if rest, err = fresh.decodeOrMerge(rest, false); err != nil {
		return fmt.Errorf("sparsify: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("sparsify: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	*s = *fresh
	return nil
}

// MergeBinary folds a serialized Fig 3 sketch (same config) into s.
func (s *Sketch) MergeBinary(data []byte) error {
	cfg, rest, err := decodeBetterHeader(data)
	if err != nil {
		return err
	}
	if cfg != s.cfg {
		return fmt.Errorf("sparsify: merge config mismatch: %w", wire.ErrBadEncoding)
	}
	s.decoded = false
	if rest, err = s.decodeOrMerge(rest, true); err != nil {
		return fmt.Errorf("sparsify: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("sparsify: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	return nil
}

// MergeMany folds k Fig 3 sketches into s: the rough sparsifiers level by
// level, the recovery banks node-occupancy-guided; bit-identical to
// sequential pairwise Add.
func (s *Sketch) MergeMany(others []*Sketch) {
	for _, o := range others {
		if s.cfg != o.cfg {
			panic("sparsify: merging incompatible sketches")
		}
	}
	s.decoded = false
	roughs := make([]*Simple, len(others))
	for i, o := range others {
		roughs[i] = o.rough
	}
	s.rough.MergeMany(roughs)
	banks := make([]*sparserec.Bank, len(others))
	for i := range s.nodeRec {
		for j, o := range others {
			banks[j] = o.nodeRec[i]
		}
		s.nodeRec[i].MergeMany(banks)
	}
}

// Footprint reports space accounting: rough sparsifier plus recovery
// banks.
func (s *Sketch) Footprint() sketchcore.Footprint {
	f := s.rough.Footprint()
	for _, b := range s.nodeRec {
		f.Accum(b.Footprint())
	}
	return f
}

// ---------------------------------------------------------------------------
// Weighted (Sec. 3.5)
// ---------------------------------------------------------------------------

// MarshalBinaryCompact serializes the weighted sparsifier: magic, config,
// then every weight class's Simple state.
func (w *Weighted) MarshalBinaryCompact() ([]byte, error) {
	buf := append([]byte(nil), weightedMagic[:]...)
	var hdr [40]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(w.cfg.N))
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(w.cfg.Epsilon))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(w.cfg.MaxWeight))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(w.cfg.K))
	binary.LittleEndian.PutUint64(hdr[32:], w.cfg.Seed)
	buf = append(buf, hdr[:]...)
	for _, s := range w.ws {
		buf = s.AppendState(buf)
	}
	return buf, nil
}

func decodeWeightedHeader(data []byte) (WeightedConfig, []byte, error) {
	if len(data) < 44 || [4]byte(data[0:4]) != weightedMagic {
		return WeightedConfig{}, nil, fmt.Errorf("sparsify: no SPW1 header: %w", wire.ErrBadEncoding)
	}
	cfg := WeightedConfig{
		N:         int(binary.LittleEndian.Uint64(data[4:])),
		Epsilon:   math.Float64frombits(binary.LittleEndian.Uint64(data[12:])),
		MaxWeight: int64(binary.LittleEndian.Uint64(data[20:])),
		K:         int(binary.LittleEndian.Uint64(data[28:])),
		Seed:      binary.LittleEndian.Uint64(data[36:]),
	}
	if cfg.N < 1 || cfg.N > 1<<24 || cfg.MaxWeight < 1 || cfg.MaxWeight > 1<<40 ||
		cfg.K < 0 || cfg.K > 1<<16 {
		return WeightedConfig{}, nil, fmt.Errorf("sparsify: implausible weighted config: %w", wire.ErrBadEncoding)
	}
	// Every class shares one Levels and KForests; only its threshold differs.
	if err := cfg.classConfig(0).checkBudget(cfg.classes()); err != nil {
		return WeightedConfig{}, nil, err
	}
	return cfg, data[44:], nil
}

// UnmarshalBinary reconstructs the weighted sparsifier from its envelope.
func (w *Weighted) UnmarshalBinary(data []byte) error {
	cfg, rest, err := decodeWeightedHeader(data)
	if err != nil {
		return err
	}
	fresh := NewWeighted(cfg)
	if fresh.cfg != cfg {
		return fmt.Errorf("sparsify: config does not round-trip: %w", wire.ErrBadEncoding)
	}
	for _, s := range fresh.ws {
		if rest, err = s.DecodeState(rest); err != nil {
			return fmt.Errorf("sparsify: %w", err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("sparsify: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	*w = *fresh
	return nil
}

// MergeBinary folds a serialized weighted sparsifier (same config) into w.
func (w *Weighted) MergeBinary(data []byte) error {
	cfg, rest, err := decodeWeightedHeader(data)
	if err != nil {
		return err
	}
	if cfg != w.cfg {
		return fmt.Errorf("sparsify: merge config mismatch: %w", wire.ErrBadEncoding)
	}
	w.decoded = false
	for _, s := range w.ws {
		if rest, err = s.MergeState(rest); err != nil {
			return fmt.Errorf("sparsify: %w", err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("sparsify: %d trailing bytes: %w", len(rest), wire.ErrBadEncoding)
	}
	return nil
}

// MergeMany folds k weighted sparsifiers class by class; bit-identical to
// sequential pairwise Add.
func (w *Weighted) MergeMany(others []*Weighted) {
	for _, o := range others {
		if w.n != o.n || w.classes != o.classes || w.cfg != o.cfg {
			panic("sparsify: merging incompatible Weighted sketches")
		}
	}
	w.decoded = false
	srcs := make([]*Simple, len(others))
	for c := range w.ws {
		for i, o := range others {
			srcs[i] = o.ws[c]
		}
		w.ws[c].MergeMany(srcs)
	}
}

// Footprint reports space accounting summed over the class sketches.
func (w *Weighted) Footprint() sketchcore.Footprint {
	var f sketchcore.Footprint
	for _, s := range w.ws {
		f.Accum(s.Footprint())
	}
	return f
}
