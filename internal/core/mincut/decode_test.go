package mincut

import (
	"testing"

	"graphsketch/internal/stream"
)

// TestDecodeParallelBitIdentical asserts that level-parallel decode returns
// exactly the sequential scan's result for every worker count, across
// stream shapes that hit the saturated, sub-k, disconnected, and
// all-levels-saturated regimes.
func TestDecodeParallelBitIdentical(t *testing.T) {
	streams := []*stream.Stream{
		stream.UniformUpdates(48, 20_000, 7),
		stream.PlantedPartition(40, 2, 0.9, 0.15, 3),
		stream.GNP(32, 0.3, 5),
		stream.Barbell(30, 2),
		stream.Path(24),
	}
	for si, st := range streams {
		ref := New(Config{N: st.N, K: 6, Seed: uint64(si) + 1})
		ref.Ingest(st)
		wantRes, wantSide, wantErr := DecodeLevels(ref.ecs, ref.cfg.K, 1)
		for _, workers := range []int{1, 2, 3, 8} {
			s := New(Config{N: st.N, K: 6, Seed: uint64(si) + 1})
			s.Ingest(st)
			res, side, err := DecodeLevels(s.ecs, s.cfg.K, workers)
			if err != wantErr || res != wantRes {
				t.Fatalf("stream %d workers %d: got (%+v, %v) want (%+v, %v)",
					si, workers, res, err, wantRes, wantErr)
			}
			if len(side) != len(wantSide) {
				t.Fatalf("stream %d workers %d: side length %d want %d", si, workers, len(side), len(wantSide))
			}
			for i := range side {
				if side[i] != wantSide[i] {
					t.Fatalf("stream %d workers %d: side[%d] differs", si, workers, i)
				}
			}
		}
	}
}

// TestMinCutRepeatable asserts the call-once footgun is gone: decode is
// read-only and cached, so MinCut and MinCutWithSide agree with each other
// and with themselves across repeated calls.
func TestMinCutRepeatable(t *testing.T) {
	st := stream.PlantedPartition(40, 2, 0.9, 0.15, 3)
	s := New(Config{N: 40, K: 8, Seed: 9})
	s.Ingest(st)
	r1, err1 := s.MinCut()
	r2, side, err2 := s.MinCutWithSide()
	r3, err3 := s.MinCut()
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatalf("errors: %v %v %v", err1, err2, err3)
	}
	if r1 != r2 || r2 != r3 {
		t.Fatalf("repeated decode drifted: %+v %+v %+v", r1, r2, r3)
	}
	if side == nil {
		t.Fatalf("MinCutWithSide returned nil side for a found cut")
	}
	// A post-decode update must invalidate the cache, not serve stale state.
	s.Update(0, 1, 1)
	if s.decoded {
		t.Fatalf("update did not invalidate the decode cache")
	}
}
