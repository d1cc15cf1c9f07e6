package graphsketch

import "testing"

// spannerGraphsEqual compares exact weighted edge sets.
func spannerGraphsEqual(t *testing.T, name string, a, b *Graph) {
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

// TestSpannerSketchMatchesOneShot: the incremental sketches must build
// exactly what the one-shot functions build from the same stream, however
// the updates arrive.
func TestSpannerSketchMatchesOneShot(t *testing.T) {
	st := GNP(48, 0.25, 7)
	wantBS := BaswanaSenSpanner(st, 3, 11)
	bs := NewBaswanaSenSketch(st.N, 3, 11)
	for i, up := range st.Updates {
		if i%2 == 0 {
			bs.Update(up.U, up.V, up.Delta)
		} else {
			bs.UpdateBatch([]Update{up})
		}
	}
	gotBS := bs.Build()
	spannerGraphsEqual(t, "baswana-sen", gotBS.Spanner, wantBS.Spanner)
	if gotBS.Passes != wantBS.Passes || gotBS.PlanEdges != wantBS.PlanEdges {
		t.Fatalf("diagnostics differ: %+v vs %+v", gotBS.Passes, wantBS.Passes)
	}
	if len(gotBS.PhaseNanos) != gotBS.Passes {
		t.Fatalf("%d phase timings for %d passes", len(gotBS.PhaseNanos), gotBS.Passes)
	}

	wantRC := RecurseConnectSpanner(st, 4, 13)
	rc := NewRecurseConnectSketch(st.N, 4, 13)
	rc.Ingest(st)
	gotRC := rc.Build()
	spannerGraphsEqual(t, "recurse-connect", gotRC.Spanner, wantRC.Spanner)
}

// TestSpannerSketchMemoization: repeated builds serve the cached result;
// an update invalidates it; rebuilding after a cancelling pair restores the
// original spanner bit for bit (linearity).
func TestSpannerSketchMemoization(t *testing.T) {
	st := GNP(40, 0.3, 17)
	bs := NewBaswanaSenSketch(st.N, 3, 19)
	bs.Ingest(st)
	first := bs.Build()
	if again := bs.Build(); again.Spanner != first.Spanner {
		t.Fatal("repeated Build must serve the memoized graph")
	}
	bs.Update(0, 1, 1)
	afterUpdate := bs.Build()
	if afterUpdate.Spanner == first.Spanner {
		t.Fatal("Update must invalidate the memoized spanner")
	}
	bs.Update(0, 1, -1) // cancel: the sketched graph is back to the original
	restored := bs.Build()
	spannerGraphsEqual(t, "restored", restored.Spanner, first.Spanner)

	rc := NewRecurseConnectSketch(st.N, 4, 23)
	rc.Ingest(st)
	firstRC := rc.Build()
	if again := rc.Build(); again.Spanner != firstRC.Spanner {
		t.Fatal("repeated RC Build must serve the memoized graph")
	}
	rc.Update(2, 3, 1)
	if rc.Build().Spanner == firstRC.Spanner {
		t.Fatal("RC Update must invalidate the memoized spanner")
	}
}

// TestSpannerSketchFootprint: after a build the retained arenas report a
// plausible occupancy-aware footprint.
func TestSpannerSketchFootprint(t *testing.T) {
	st := GNP(40, 0.3, 29)
	bs := NewBaswanaSenSketch(st.N, 3, 31)
	bs.Ingest(st)
	bs.Build()
	f := bs.Footprint()
	if f.ResidentBytes <= 0 || f.TotalCells <= 0 || f.WireCompactBytes <= 0 {
		t.Fatalf("implausible BS footprint %+v", f)
	}
	if f.NonzeroCells <= 0 || f.NonzeroCells > f.TotalCells {
		t.Fatalf("implausible BS occupancy %+v", f)
	}
	rc := NewRecurseConnectSketch(st.N, 4, 31)
	rc.Ingest(st)
	rc.Build()
	if f := rc.Footprint(); f.ResidentBytes <= 0 || f.TotalCells <= 0 {
		t.Fatalf("implausible RC footprint %+v", f)
	}
}

// TestSpannerSketchLogBoundedUnderChurn: a churn stream (20k updates on 32
// vertices, almost all of them insert/delete pairs) must not grow the
// sketches' update log with the stream. After every batch the log holds at
// most twice the most edges live at once plus that batch, and the build
// still equals the one-shot construction on the raw stream, edge for edge.
func TestSpannerSketchLogBoundedUnderChurn(t *testing.T) {
	const n, total, batch = 32, 20_000, 7
	st := GNP(n, 0.3, 41).WithChurn(16_000, 43)
	if len(st.Updates) < total {
		t.Fatalf("churn stream has %d updates, want >= %d", len(st.Updates), total)
	}
	st.Updates = st.Updates[:total]

	bs := NewBaswanaSenSketch(n, 3, 47)
	rc := NewRecurseConnectSketch(n, 4, 53)
	live := map[uint64]int64{}
	peakLive := 0
	for lo := 0; lo < total; lo += batch {
		ups := st.Updates[lo:min(lo+batch, total)]
		for i, up := range ups {
			if i%2 == 0 {
				bs.Update(up.U, up.V, up.Delta)
				rc.Update(up.U, up.V, up.Delta)
			} else {
				bs.UpdateBatch(ups[i : i+1])
				rc.UpdateBatch(ups[i : i+1])
			}
			idx := uint64(min(up.U, up.V))*n + uint64(max(up.U, up.V))
			if live[idx] += up.Delta; live[idx] == 0 {
				delete(live, idx)
			}
			peakLive = max(peakLive, len(live))
		}
		for name, got := range map[string]int{"baswana-sen": len(bs.st.Updates), "recurse-connect": len(rc.st.Updates)} {
			if bound := 2*peakLive + batch; got > bound {
				t.Fatalf("%s: after %d updates the log holds %d > 2*%d+%d", name, lo+len(ups), got, peakLive, batch)
			}
		}
	}

	wantBS := BaswanaSenSpanner(st, 3, 47)
	gotBS := bs.Build()
	spannerGraphsEqual(t, "baswana-sen", gotBS.Spanner, wantBS.Spanner)
	if gotBS.Passes != wantBS.Passes || gotBS.PlanEdges != wantBS.PlanEdges {
		t.Fatalf("baswana-sen diagnostics differ: passes %d/%d, plan %d/%d", gotBS.Passes, wantBS.Passes, gotBS.PlanEdges, wantBS.PlanEdges)
	}
	wantRC := RecurseConnectSpanner(st, 4, 53)
	gotRC := rc.Build()
	spannerGraphsEqual(t, "recurse-connect", gotRC.Spanner, wantRC.Spanner)
	if gotRC.Passes != wantRC.Passes || gotRC.PlanEdges != wantRC.PlanEdges {
		t.Fatalf("recurse-connect diagnostics differ: passes %d/%d, plan %d/%d", gotRC.Passes, wantRC.Passes, gotRC.PlanEdges, wantRC.PlanEdges)
	}
}
