package agm

import (
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/stream"
)

func edgesEqual(a, b *graph.Graph) bool {
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

// TestWitnessReadOnlyAndCached asserts the decode-path contract: extraction
// does not consume the sketch (the pending-plan subtraction never writes
// the arenas), the result is cached, and sketch mutation invalidates it.
func TestWitnessReadOnlyAndCached(t *testing.T) {
	st := stream.UniformUpdates(32, 8_000, 5)
	ec := NewEdgeConnectSketch(32, 4, 11)
	ec.Ingest(st)
	twin := NewEdgeConnectSketch(32, 4, 11)
	twin.Ingest(st)

	h1 := ec.Witness()
	if !ec.Equal(twin) {
		t.Fatalf("Witness mutated the sketch state")
	}
	h2 := ec.Witness()
	if h1 != h2 {
		t.Fatalf("second Witness call did not return the cached graph")
	}
	// An independent extraction of identical state must agree byte for byte.
	if !edgesEqual(h1, twin.Witness()) {
		t.Fatalf("witness of equal sketches diverged")
	}

	ec.Update(0, 1, 1)
	h3 := ec.Witness()
	if h3 == h1 {
		t.Fatalf("update did not invalidate the witness cache")
	}
}

// TestWitnessIntoReuse drives one graph + scratch through two different
// sketches: reuse must leave no residue — each extraction matches a fresh
// Witness of the same sketch exactly.
func TestWitnessIntoReuse(t *testing.T) {
	stA := stream.UniformUpdates(32, 8_000, 5)
	stB := stream.PlantedPartition(32, 2, 0.8, 0.2, 9)

	ecA := NewEdgeConnectSketch(32, 4, 11)
	ecA.Ingest(stA)
	ecB := NewEdgeConnectSketch(32, 6, 13)
	ecB.Ingest(stB)

	h := graph.New(0)
	ws := NewWitnessScratch()
	ecA.WitnessInto(h, ws)
	if !edgesEqual(h, ecA.Witness()) {
		t.Fatalf("WitnessInto(A) differs from Witness(A)")
	}
	ecB.WitnessInto(h, ws)
	if !edgesEqual(h, ecB.Witness()) {
		t.Fatalf("WitnessInto(B) after reuse differs from Witness(B)")
	}
	ecA.WitnessInto(h, ws)
	if !edgesEqual(h, ecA.Witness()) {
		t.Fatalf("WitnessInto(A) after B differs from Witness(A)")
	}
}

// TestWitnessSaturationFlag checks WitnessInfo's provable-saturation bit
// against ground truth on both sides: a dense graph whose witness must be
// k-connected when the flag is set, and a sparse graph where the flag must
// be off. The flag is allowed to be conservatively false, never wrongly
// true — when set, StoerWagner on the witness must be >= k.
func TestWitnessSaturationFlag(t *testing.T) {
	dense := stream.Complete(24)
	ec := NewEdgeConnectSketch(24, 3, 7)
	ec.Ingest(dense)
	h, sat := ec.WitnessInfo()
	if sat {
		if val, _ := h.StoerWagner(); val < 3 {
			t.Fatalf("saturation flag set but witness min cut %d < k", val)
		}
	} else {
		t.Logf("dense witness not flagged saturated (allowed, conservative)")
	}

	sparse := stream.Path(24)
	ecs := NewEdgeConnectSketch(24, 3, 7)
	ecs.Ingest(sparse)
	hs, sat := ecs.WitnessInfo()
	if sat {
		t.Fatalf("path witness flagged saturated; witness m=%d", hs.NumEdges())
	}
}

// TestWitnessPrefixMatchesSmallerSketch pins the prefix extraction the
// service's min cut reads off the sparsifier's levels: on random streams,
// the first K forests of a k-forest sketch give the witness and saturation
// flag of a K-forest sketch with the same seed, bit for bit, for K in
// {1, ceil(k/2), k}.
func TestWitnessPrefixMatchesSmallerSketch(t *testing.T) {
	const n, k = 24, 7
	streams := map[string]func(seed uint64) *stream.Stream{
		"uniform": func(seed uint64) *stream.Stream { return stream.UniformUpdates(n, 3_000, seed) },
		"churn":   func(seed uint64) *stream.Stream { return stream.GNP(n, 0.3, seed).WithChurn(400, seed^5) },
		"dense":   func(seed uint64) *stream.Stream { return stream.GNP(n, 0.9, seed) },
		"sparse":  func(seed uint64) *stream.Stream { return stream.GNP(n, 0.1, seed) },
	}
	h, want := graph.New(0), graph.New(0)
	ws := NewWitnessScratch()
	for name, gen := range streams {
		for seed := uint64(1); seed <= 6; seed++ {
			st := gen(seed)
			full := NewEdgeConnectSketch(n, k, seed*31)
			full.Ingest(st)
			for _, kk := range []int{1, (k + 1) / 2, k} {
				small := NewEdgeConnectSketch(n, kk, seed*31)
				small.Ingest(st)
				gotSat := full.WitnessPrefixInto(h, ws, kk)
				wantSat := small.WitnessInto(want, NewWitnessScratch())
				if gotSat != wantSat || !edgesEqual(h, want) {
					t.Fatalf("%s seed %d K=%d: prefix witness (%d edges, flag %v) != %d-forest witness (%d edges, flag %v)",
						name, seed, kk, h.NumEdges(), gotSat, kk, want.NumEdges(), wantSat)
				}
			}
		}
	}
}
