package graphsketch

import (
	"encoding/binary"
	"math"
	"testing"

	"graphsketch/internal/wire"
)

// Fuzz targets for the public decode surface: truncated, bit-flipped, or
// arbitrary bytes fed to every facade UnmarshalBinary must return an
// error or decode cleanly — never panic, never allocate beyond the decode
// cell budget. The corpus seeds real payloads of every envelope this
// package emits (AGM3, AGT1, MCS1, SPS1, SPB1, SPW1, SGS1), so mutation
// starts from deep inside valid encodings.

// envelopeHeader is a bare envelope: the magic, then u64 LE header fields.
func envelopeHeader(magic string, fields ...uint64) []byte {
	b := []byte(magic)
	for _, f := range fields {
		b = binary.LittleEndian.AppendUint64(b, f)
	}
	return b
}

var epsHalfBits = math.Float64bits(0.5)

// facadeWire lists every facade decoder with an envelope header of its type
// whose plausible fields multiply to more cells than a 1<<22 decode budget
// (150-350 MB resident): a decoder must refuse it before allocating. Each
// header is exactly as long as its envelope's header, so the byte after it
// in a real payload is the first cell state's tag.
var facadeWire = []struct {
	name       string
	decode     func([]byte) error
	overBudget []byte
}{
	{"connectivity", func(b []byte) error { var s ConnectivitySketch; return s.UnmarshalBinary(b) },
		envelopeHeader("AGM3", 4096, 1, 1)}, // n, seed, rounds (n needs 16)
	{"mst", func(b []byte) error { var s MSTSketch; return s.UnmarshalBinary(b) },
		envelopeHeader("AGT1", 128, 64, 2)}, // n, classes, seed
	{"mincut", func(b []byte) error { var s MinCutSketch; return s.UnmarshalBinary(b) },
		envelopeHeader("MCS1", 64, epsHalfBits, 24, 14, 3)}, // N, eps, K, Levels, seed
	{"simple-sparsifier", func(b []byte) error { var s SimpleSparsifier; return s.UnmarshalBinary(b) },
		envelopeHeader("SPS1", 64, epsHalfBits, 24, 24, 14, 4)}, // N, eps, K, KForests, Levels, seed
	{"sparsifier", func(b []byte) error { var s Sparsifier; return s.UnmarshalBinary(b) },
		envelopeHeader("SPB1", 64, epsHalfBits, 8, 24, 14, 5)}, // N, eps, RecoveryK, RoughK, Levels, seed
	{"weighted-sparsifier", func(b []byte) error { var s WeightedSparsifier; return s.UnmarshalBinary(b) },
		envelopeHeader("SPW1", 64, epsHalfBits, 3, 10, 6)}, // N, eps, MaxWeight, K, seed
	{"subgraph", func(b []byte) error { var s SubgraphSketch; return s.UnmarshalBinary(b) },
		envelopeHeader("SGS1", 64, 3, 120000, 7)}, // n, k, samples, seed
}

// fuzzSeeds returns, per facadeWire entry, a compact payload of one small
// instance and five hostile variants: truncated, bit-flipped, its first
// cell tag set to the retired 0x00, header-only, and the over-budget header.
// Each instance is built, marshalled and dropped in turn, so the largest
// (the weighted sparsifier) is the only one resident at a time.
func fuzzSeeds(tb testing.TB) [][]byte {
	st := GNP(24, 0.3, 99).WithChurn(60, 7)
	type marshaler interface{ MarshalBinaryCompact() ([]byte, error) }
	ingest := func(sk interface {
		marshaler
		Ingest(*Stream)
	}, s *Stream) marshaler {
		sk.Ingest(s)
		return sk
	}
	var seeds [][]byte
	for i, build := range []func() marshaler{
		func() marshaler { return ingest(NewConnectivitySketch(24, 1), st) },
		func() marshaler { return ingest(NewMSTSketch(24, 8, 2), stWeighted()) },
		func() marshaler { return ingest(NewMinCutSketch(24, 0.5, 3), st) },
		func() marshaler { return ingest(NewSimpleSparsifier(24, 0.9, 4), st) },
		func() marshaler { return ingest(NewSparsifier(24, 0.9, 5), st) },
		func() marshaler { return ingest(NewWeightedSparsifier(24, 0.9, 8, 6), stWeighted()) },
		func() marshaler { return ingest(NewSubgraphSketch(24, 3, 64, 7), st) },
	} {
		s, err := build().MarshalBinaryCompact()
		if err != nil {
			tb.Fatalf("%s: marshal: %v", facadeWire[i].name, err)
		}
		hdr := len(facadeWire[i].overBudget)
		flip := append([]byte(nil), s...)
		flip[len(flip)/3] ^= 0x40
		retag := append([]byte(nil), s...)
		retag[hdr] = 0x00
		seeds = append(seeds, s, s[:len(s)/2], flip, retag, s[:hdr], facadeWire[i].overBudget)
	}
	return seeds
}

func stWeighted() *Stream { return WeightedGNP(24, 0.3, 8, 11) }

// FuzzUnmarshalBinary feeds arbitrary bytes to every facade decoder.
func FuzzUnmarshalBinary(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Small budget: a fuzzed header declaring a huge shape must fail
		// fast, not thrash the allocator.
		prev := wire.SetDecodeCellBudget(1 << 22)
		defer wire.SetDecodeCellBudget(prev)
		for _, fw := range facadeWire {
			_ = fw.decode(data) // must not panic; errors are the expected outcome
		}
	})
}

// FuzzMergeBytes feeds arbitrary bytes to wire-level merges, whose decode
// path (header check, per-bank fold) is distinct from UnmarshalBinary.
func FuzzMergeBytes(f *testing.F) {
	conn := NewConnectivitySketch(24, 1)
	conn.Update(1, 2, 1)
	compact, _ := conn.MarshalBinaryCompact()
	retag := append([]byte(nil), compact...)
	retag[28] = 0x00 // the retired fixed-size cell format's tag
	f.Add(compact)
	f.Add(retag)
	f.Fuzz(func(t *testing.T, data []byte) {
		prev := wire.SetDecodeCellBudget(1 << 22)
		defer wire.SetDecodeCellBudget(prev)
		dst := NewConnectivitySketch(24, 1)
		_ = dst.MergeBytes(data)
		mc := NewMinCutSketch(24, 0.5, 3)
		_ = mc.MergeBytes(data)
	})
}
