package sparsify

import (
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/stream"
)

// graphsEqual compares exact edge multisets.
func graphsEqual(a, b *graph.Graph) bool {
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

// assembleSimpleRef is Fig 2 step 3 as the paper states it: a map-deduped
// candidate set probed with one capped max-flow per (candidate, level). It
// is the semantic reference the class-based assembly (saturated levels
// skipped, every other level answered from graph.KClasses labels) is
// property-tested against.
func assembleSimpleRef(hs []*graph.Graph, k int64, n int) *graph.Graph {
	spars := graph.New(n)
	type cand struct{ u, v int }
	seen := map[uint64]cand{}
	for _, h := range hs {
		for _, e := range h.Edges() {
			seen[stream.EdgeIndex(e.U, e.V, n)] = cand{e.U, e.V}
		}
	}
	for idx := uint64(0); idx < uint64(n)*uint64(n); idx++ {
		c, ok := seen[idx]
		if !ok {
			continue
		}
		for i, h := range hs {
			lam := h.MinCutSTCapped(c.u, c.v, k)
			if lam < k {
				if w := h.Weight(c.u, c.v); w != 0 {
					spars.AddEdge(c.u, c.v, w<<uint(i))
				}
				break
			}
		}
	}
	return spars
}

// TestAssembleMatchesFlowReference cross-checks the class-based assembly
// (each level's k-connectivity classes, with its saturated-level shortcut) against the per-candidate
// capped-flow reference on a spread of stream shapes: the frozen level of
// every candidate, and hence every output byte, must agree.
func TestAssembleMatchesFlowReference(t *testing.T) {
	streams := []*stream.Stream{
		stream.UniformUpdates(32, 8_000, 11),
		stream.PlantedPartition(28, 2, 0.8, 0.2, 5),
		stream.GNP(24, 0.25, 13),
		stream.Barbell(22, 1),
		stream.Cycle(20),
	}
	for si, st := range streams {
		s := NewSimple(SimpleConfig{N: st.N, Seed: uint64(si) + 21})
		s.Ingest(st)
		got, err := s.Sparsify()
		if err != nil {
			t.Fatalf("stream %d: %v", si, err)
		}
		// Rebuild the witnesses independently for the reference path.
		s2 := NewSimple(SimpleConfig{N: st.N, Seed: uint64(si) + 21})
		s2.Ingest(st)
		hs := make([]*graph.Graph, s2.cfg.Levels)
		for i := range s2.ecs {
			hs[i] = s2.ecs[i].Witness()
		}
		want := assembleSimpleRef(hs, int64(s2.cfg.K), s2.cfg.N)
		if !graphsEqual(got, want) {
			t.Fatalf("stream %d: assembly diverged from flow reference (got m=%d w=%d, want m=%d w=%d)",
				si, got.NumEdges(), got.TotalWeight(), want.NumEdges(), want.TotalWeight())
		}
	}
}

// TestSparsifyClassesMatchFlowReference checks the class pass the decode
// workers run beside witness extraction against the capped-flow reference
// at 1, 2 and 4 workers: on GNP(64, 0.3), the end-to-end benchmark's base
// graph, and on dense K40, whose low levels are saturated and skip the
// class pass.
func TestSparsifyClassesMatchFlowReference(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     SimpleConfig
		st      *stream.Stream
		wantSat bool
	}{
		{"gnp64-0.3", SimpleConfig{N: 64, Seed: 47}, stream.GNP(64, 0.3, 1), false},
		{"k40", SimpleConfig{N: 40, K: 8, Seed: 47}, stream.Complete(40), true},
	} {
		ref := NewSimple(tc.cfg)
		ref.Ingest(tc.st)
		hs := make([]*graph.Graph, ref.cfg.Levels)
		saturated, open := 0, 0
		for i, ec := range ref.ecs {
			var sat bool
			hs[i], sat = ec.WitnessInfo()
			if sat {
				saturated++
			} else if hs[i].NumEdges() > 0 {
				open++
			}
		}
		if tc.wantSat && saturated == 0 || open == 0 {
			t.Fatalf("%s: %d saturated and %d open non-empty levels; the case no longer covers both kinds",
				tc.name, saturated, open)
		}
		want := assembleSimpleRef(hs, int64(ref.cfg.K), ref.cfg.N)
		for _, workers := range []int{1, 2, 4} {
			s := NewSimple(tc.cfg)
			s.Ingest(tc.st)
			s.SetDecodeWorkers(workers)
			got, err := s.Sparsify()
			if err != nil {
				t.Fatal(err)
			}
			if !graphsEqual(got, want) {
				t.Fatalf("%s workers %d: assembly diverged from flow reference (got m=%d w=%d, want m=%d w=%d)",
					tc.name, workers, got.NumEdges(), got.TotalWeight(), want.NumEdges(), want.TotalWeight())
			}
		}
	}
}

// TestSparsifyParallelBitIdentical asserts level-parallel witness
// extraction assembles to exactly the sequential result for every worker
// count and sketch flavor.
func TestSparsifyParallelBitIdentical(t *testing.T) {
	st := stream.UniformUpdates(40, 12_000, 17)
	ref := NewSimple(SimpleConfig{N: 40, K: 4, Seed: 23})
	ref.Ingest(st)
	want, err := ref.sparsifyLevels(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 9} {
		s := NewSimple(SimpleConfig{N: 40, K: 4, Seed: 23})
		s.Ingest(st)
		got, err := s.sparsifyLevels(workers)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(got, want) {
			t.Fatalf("workers %d: parallel extraction diverged", workers)
		}
	}
}

// TestSparsifyRepeatable asserts the call-once footgun is gone on all three
// sparsifier flavors: decode no longer consumes the sketch, and repeated
// calls return the cached result.
func TestSparsifyRepeatable(t *testing.T) {
	st := stream.UniformUpdates(32, 8_000, 29)

	s := NewSimple(SimpleConfig{N: 32, K: 4, Seed: 31})
	s.Ingest(st)
	g1, err1 := s.Sparsify()
	g2, err2 := s.Sparsify()
	if err1 != nil || err2 != nil {
		t.Fatalf("simple: %v %v", err1, err2)
	}
	if g1 != g2 {
		t.Fatalf("simple: second Sparsify did not return the cached graph")
	}

	b := New(Config{N: 32, RecoveryK: 8, RoughK: 4, Seed: 31})
	b.Ingest(st)
	bg1, err1 := b.Sparsify()
	bg2, err2 := b.Sparsify()
	if err1 != nil || err2 != nil {
		t.Fatalf("better: %v %v", err1, err2)
	}
	if bg1 != bg2 {
		t.Fatalf("better: second Sparsify did not return the cached graph")
	}

	wst := stream.WeightedGNP(32, 0.4, 15, 7)
	w := NewWeighted(WeightedConfig{N: 32, MaxWeight: 15, K: 2, Seed: 31})
	w.Ingest(wst)
	wg1, err1 := w.Sparsify()
	wg2, err2 := w.Sparsify()
	if err1 != nil || err2 != nil {
		t.Fatalf("weighted: %v %v", err1, err2)
	}
	if wg1 != wg2 {
		t.Fatalf("weighted: second Sparsify did not return the cached graph")
	}

	// Updates invalidate: a fresh decode must run, not serve stale bytes.
	s.Update(0, 1, 1)
	if s.decoded {
		t.Fatalf("simple: update did not invalidate the decode cache")
	}
}

// TestSimpleMinCutMemo: MinCut is cached beside Sparsify, and every state
// change that drops the sparsifier's cache drops it too — after each, the
// answer is a fresh sketch's of the same state.
func TestSimpleMinCutMemo(t *testing.T) {
	const n, k = 32, 4
	cfg := SimpleConfig{N: n, Epsilon: 1, Seed: 21}
	base := stream.Barbell(n, 2).Updates
	extra := []stream.Update{{U: 1, V: n - 1, Delta: 1}, {U: 2, V: n - 2, Delta: 1}, {U: 3, V: n - 3, Delta: 1}}
	other := NewSimple(cfg)
	other.UpdateBatch(extra)
	bank, err := other.AppendBankState(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]func(s *Simple){
		"UpdateBatch": func(s *Simple) { s.UpdateBatch(extra) },
		"Update": func(s *Simple) {
			for _, u := range extra {
				s.Update(u.U, u.V, u.Delta)
			}
		},
		"Add": func(s *Simple) { s.Add(other) },
		"MergeBankState+Invalidate": func(s *Simple) {
			if err := s.MergeBankState(0, bank); err != nil {
				t.Fatal(err)
			}
			s.Invalidate()
		},
		"ReplaceBankState+Invalidate": func(s *Simple) {
			if err := s.ReplaceBankState(0, bank); err != nil {
				t.Fatal(err)
			}
			s.Invalidate()
		},
	}
	for name, change := range paths {
		s := NewSimple(cfg)
		s.UpdateBatch(base)
		before, err := s.MinCut(k)
		if again, _ := s.MinCut(k); err != nil || again != before {
			t.Fatalf("%s: repeated MinCut drifted: %+v then %+v (err %v)", name, before, again, err)
		}
		change(s)
		fresh := NewSimple(cfg)
		fresh.Add(s)
		got, gotErr := s.MinCut(k)
		want, wantErr := fresh.MinCut(k)
		if got != want || gotErr != wantErr {
			t.Fatalf("%s: %+v (err %v) after the change, a fresh sketch of the same state %+v (err %v)", name, got, gotErr, want, wantErr)
		}
		if got == before {
			t.Fatalf("%s: fixture change left the min cut at %+v", name, got)
		}
	}
}
