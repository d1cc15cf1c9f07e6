package spanner_test

import (
	"testing"

	"graphsketch/internal/baseline"
	"graphsketch/internal/core/spanner"
	"graphsketch/internal/graph"
	"graphsketch/internal/stream"
)

// edgesEqual compares exact weighted edge sets.
func edgesEqual(t *testing.T, name string, a, b *graph.Graph) {
	t.Helper()
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatalf("%s: %d edges vs %d", name, len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", name, i, ae[i], be[i])
		}
	}
}

// TestBaswanaSenMatchesBaseline: the banked/planned construction must
// reproduce the retained scalar map-based path bit for bit — the
// spanner_bit_identical property (no wire golden pins this path).
func TestBaswanaSenMatchesBaseline(t *testing.T) {
	cases := []struct {
		name string
		st   *stream.Stream
		k    int
	}{
		{"gnp-k2", stream.GNP(60, 0.15, 1), 2},
		{"gnp-k3", stream.GNP(60, 0.15, 2), 3},
		{"dense-k4", stream.GNP(48, 0.5, 3), 4},
		{"grid-k2", stream.Grid(6, 8), 2},
		{"pa-k3", stream.PreferentialAttachment(60, 3, 5), 3},
		{"k1-whole-graph", stream.GNP(30, 0.2, 7), 1},
		{"churn-k3", stream.GNP(40, 0.3, 11).WithChurn(2000, 13), 3},
	}
	for _, c := range cases {
		want := baseline.BaswanaSen(c.st, c.k, 99)
		got := spanner.BaswanaSen(c.st, c.k, 99)
		if got.Passes != want.Passes {
			t.Errorf("%s: passes %d vs baseline %d", c.name, got.Passes, want.Passes)
		}
		edgesEqual(t, c.name, got.Spanner, want.Spanner)
		if len(got.PhaseNanos) != got.Passes {
			t.Errorf("%s: %d phase timings for %d passes", c.name, len(got.PhaseNanos), got.Passes)
		}
	}
}

// TestRecurseConnectMatchesBaseline: same property for RECURSECONNECT,
// including the contraction bookkeeping (deterministic center relabeling).
func TestRecurseConnectMatchesBaseline(t *testing.T) {
	cases := []struct {
		name string
		st   *stream.Stream
		k    int
	}{
		{"gnp-k4", stream.GNP(60, 0.2, 37), 4},
		{"dense-k4", stream.GNP(48, 0.5, 41), 4},
		{"pa-k8", stream.PreferentialAttachment(64, 4, 43), 8},
		{"cycle-k4", stream.Cycle(32), 4},
		{"churn-k4", stream.GNP(40, 0.4, 89).WithChurn(2000, 97), 4},
		{"k16", stream.GNP(64, 0.25, 7), 16},
	}
	for _, c := range cases {
		want := baseline.RecurseConnect(c.st, c.k, 47)
		got := spanner.RecurseConnect(c.st, c.k, 47)
		if got.Passes != want.Passes {
			t.Errorf("%s: passes %d vs baseline %d", c.name, got.Passes, want.Passes)
		}
		edgesEqual(t, c.name, got.Spanner, want.Spanner)
	}
}

// TestSpannerEmptyGraph: a zero-vertex stream must build an empty spanner
// with the retained path's pass accounting, not panic.
func TestSpannerEmptyGraph(t *testing.T) {
	empty := &stream.Stream{N: 0}
	bsBase := baseline.BaswanaSen(empty, 3, 1)
	bs := spanner.BaswanaSen(empty, 3, 1)
	if bs.Spanner.NumEdges() != 0 || bs.Passes != bsBase.Passes {
		t.Fatalf("empty BS: edges %d passes %d (baseline %d)", bs.Spanner.NumEdges(), bs.Passes, bsBase.Passes)
	}
	rcBase := baseline.RecurseConnect(empty, 4, 1)
	rc := spanner.RecurseConnect(empty, 4, 1)
	if rc.Spanner.NumEdges() != 0 || rc.Passes != rcBase.Passes {
		t.Fatalf("empty RC: edges %d passes %d (baseline %d)", rc.Spanner.NumEdges(), rc.Passes, rcBase.Passes)
	}
}

// TestSpannerWorkerCountsBitIdentical: sharded plan sweeps and parallel
// decode must not change a single output edge, for any worker setting.
func TestSpannerWorkerCountsBitIdentical(t *testing.T) {
	st := stream.GNP(56, 0.25, 17).WithChurn(500, 19)
	wantBS := spanner.BaswanaSen(st, 3, 23)
	wantRC := spanner.RecurseConnect(st, 4, 23)
	for _, workers := range []int{1, 2, 4} {
		bs := spanner.NewBSBuilder(st.N, 3, 23)
		bs.SetIngestWorkers(workers)
		bs.SetDecodeWorkers(workers)
		gotBS := bs.Build(st)
		edgesEqual(t, "baswana-sen", gotBS.Spanner, wantBS.Spanner)

		rc := spanner.NewRCBuilder(st.N, 4, 23)
		rc.SetIngestWorkers(workers)
		rc.SetDecodeWorkers(workers)
		gotRC := rc.Build(st)
		edgesEqual(t, "recurse-connect", gotRC.Spanner, wantRC.Spanner)
	}
}

// TestSpannerSweepRangesBitIdentical: the slot-owned sweep splits the live
// members into one range per ingest worker, and range ends need not fall on
// an occupancy word (64 slots). At n = 100 and 1, 2 and 3 workers the ranges
// split words of both the join arena and the group bank. The sparse stream
// retires vertices every pass, so the live prefix shrinks and the next pass,
// and the next build on a reused builder, must find the slots past it
// zeroed. Every build, fresh or reused, alternating the two streams, must
// match the retained scalar construction edge for edge.
func TestSpannerSweepRangesBitIdentical(t *testing.T) {
	streams := []*stream.Stream{
		stream.GNP(100, 0.04, 51),
		stream.GNP(100, 0.12, 52).WithChurn(600, 53),
	}
	reusedBS := spanner.NewBSBuilder(100, 3, 57)
	reusedRC := spanner.NewRCBuilder(100, 4, 57)
	for _, workers := range []int{1, 2, 3} {
		for _, st := range streams {
			wantBS := baseline.BaswanaSen(st, 3, 57)
			wantRC := baseline.RecurseConnect(st, 4, 57)
			for _, fresh := range []bool{true, false} {
				bs, rc := reusedBS, reusedRC
				if fresh {
					bs, rc = spanner.NewBSBuilder(100, 3, 57), spanner.NewRCBuilder(100, 4, 57)
				}
				bs.SetIngestWorkers(workers)
				rc.SetIngestWorkers(workers)
				edgesEqual(t, "baswana-sen", bs.Build(st).Spanner, wantBS.Spanner)
				edgesEqual(t, "recurse-connect", rc.Build(st).Spanner, wantRC.Spanner)
			}
		}
	}
}

// TestBuilderReuseBitIdentical: a builder rebuilt on reseeded arenas (the
// phase/build-reuse path) must reproduce a fresh builder's spanner, build
// after build and across different streams.
func TestBuilderReuseBitIdentical(t *testing.T) {
	stA := stream.GNP(48, 0.25, 29)
	stB := stream.GNP(48, 0.4, 31).WithChurn(800, 33)
	bs := spanner.NewBSBuilder(48, 3, 35)
	rc := spanner.NewRCBuilder(48, 4, 35)
	for i := 0; i < 2; i++ {
		for _, st := range []*stream.Stream{stA, stB} {
			edgesEqual(t, "bs-reuse", bs.Build(st).Spanner, spanner.BaswanaSen(st, 3, 35).Spanner)
			edgesEqual(t, "rc-reuse", rc.Build(st).Spanner, spanner.RecurseConnect(st, 4, 35).Spanner)
		}
	}
	if f := bs.Footprint(); f.ResidentBytes <= 0 || f.TotalCells <= 0 {
		t.Fatalf("implausible BS builder footprint %+v", f)
	}
	if f := rc.Footprint(); f.ResidentBytes <= 0 || f.TotalCells <= 0 {
		t.Fatalf("implausible RC builder footprint %+v", f)
	}
}
