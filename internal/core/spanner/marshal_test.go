package spanner

import (
	"sort"
	"testing"
)

// fillSampler loads a deterministic pseudo-random update mix.
func fillSampler(gs *GroupSampler, n int, seed uint64) {
	x := seed
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		gs.Update(x%16, (x>>8)%gs.universe, int64(x%5)-2)
	}
}

func sortedCollect(gs *GroupSampler) []uint64 {
	out := gs.Collect()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func samplersEqual(t *testing.T, name string, a, b *GroupSampler) {
	t.Helper()
	if a.universe != b.universe || a.reps != b.reps || a.buckets != b.buckets || a.seed != b.seed {
		t.Fatalf("%s: parameters differ", name)
	}
	if !a.cells.Equal(b.cells) {
		t.Fatalf("%s: cell state differs", name)
	}
}

// TestGroupSamplerWireRoundTrip: the envelope must reconstruct the exact
// sampler state (and with it the collected samples and mergeability).
func TestGroupSamplerWireRoundTrip(t *testing.T) {
	gs := NewGroupSampler(1<<14, 7, 0xabc)
	fillSampler(gs, 600, 5)
	compact, err := gs.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	if cells := gs.Footprint().TotalCells; int64(len(compact)) >= 24*cells {
		t.Fatalf("compact %d bytes should undercut 24 per cell (%d cells) on a sparse grid", len(compact), cells)
	}
	var rtc GroupSampler
	if err := rtc.UnmarshalBinary(compact); err != nil {
		t.Fatal(err)
	}
	samplersEqual(t, "compact", &rtc, gs)
	// The round-tripped sampler must still merge with the original.
	rtc.Add(gs)

	// Empty sampler round-trips too.
	empty := NewGroupSampler(1<<14, 7, 0xabc)
	payload, err := empty.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var rt GroupSampler
	if err := rt.UnmarshalBinary(payload); err != nil {
		t.Fatal(err)
	}
	if got := rt.Collect(); len(got) != 0 {
		t.Fatalf("empty sampler round-trip collected %d items", len(got))
	}
}

// TestGroupSamplerMergeBinary: the wire-level fold must match Add — the
// coordinator aggregation of a distributed spanner pass.
func TestGroupSamplerMergeBinary(t *testing.T) {
	mk := func() *GroupSampler { return NewGroupSampler(1<<12, 5, 0x77) }
	whole := mk()
	coord := mk()
	for site := 0; site < 3; site++ {
		s := mk()
		fillSampler(s, 300, uint64(13+site))
		fillSampler(whole, 300, uint64(13+site))
		payload, err := s.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.MergeBinary(payload); err != nil {
			t.Fatal(err)
		}
	}
	samplersEqual(t, "merge-binary", coord, whole)
	got, want := sortedCollect(coord), sortedCollect(whole)
	if len(got) != len(want) {
		t.Fatalf("collected %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

// TestGroupSamplerWireRejects: corrupt, truncated, and incompatible
// payloads must error out without panicking.
func TestGroupSamplerWireRejects(t *testing.T) {
	gs := NewGroupSampler(1<<10, 4, 9)
	fillSampler(gs, 100, 3)
	payload, _ := gs.MarshalBinaryCompact()

	var rt GroupSampler
	if err := rt.UnmarshalBinary(payload[:20]); err == nil {
		t.Fatal("truncated header must be rejected")
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 'X'
	if err := rt.UnmarshalBinary(bad); err == nil {
		t.Fatal("bad magic must be rejected")
	}
	if err := rt.UnmarshalBinary(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
	other := NewGroupSampler(1<<10, 6, 9) // different budget -> bucket count
	if err := other.MergeBinary(payload); err == nil {
		t.Fatal("parameter mismatch must be rejected by MergeBinary")
	}
	seedMismatch := NewGroupSampler(1<<10, 4, 10)
	if err := seedMismatch.MergeBinary(payload); err == nil {
		t.Fatal("seed mismatch must be rejected by MergeBinary")
	}
}
