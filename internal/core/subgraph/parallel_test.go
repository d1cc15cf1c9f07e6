package subgraph

import (
	"bytes"
	"testing"

	"graphsketch/internal/stream"
)

// sameState fails unless got holds want's sampler cells and occupancy and
// its norm estimator state, bit for bit.
func sameState(t *testing.T, name string, got, want *Sketch) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: sampler state differs", name)
	}
	for slot := 0; slot < want.samples; slot++ {
		if got.samplers.SlotOccupied(slot) != want.samplers.SlotOccupied(slot) {
			t.Fatalf("%s: slot %d occupancy differs", name, slot)
		}
	}
	if !bytes.Equal(got.norm.AppendState(nil), want.norm.AppendState(nil)) {
		t.Fatalf("%s: norm estimator state differs", name)
	}
}

// TestIngestParallelBitIdentical: the slot-owned sampler ranges plus the
// norm unit must land exactly the state of per-update Update calls, for
// every worker count (including more workers than samples), and keep the
// occupancy an earlier batch left through batches that change nothing.
func TestIngestParallelBitIdentical(t *testing.T) {
	const n, k, samples = 12, 3, 5
	st := stream.GNP(n, 0.4, 3).WithChurn(300, 4)
	first, rest := st.Updates[:len(st.Updates)/2], st.Updates[len(st.Updates)/2:]
	half := New(n, k, samples, 7)
	for _, up := range first {
		half.Update(up.U, up.V, up.Delta)
	}
	seq := New(n, k, samples, 7)
	for _, up := range st.Updates {
		seq.Update(up.U, up.V, up.Delta)
	}
	for _, workers := range []int{0, 1, 2, 4, 9} {
		par := New(n, k, samples, 7)
		par.IngestParallel(&stream.Stream{N: n, Updates: first}, workers)
		par.IngestParallel(&stream.Stream{N: n}, workers)
		par.UpdateBatch([]stream.Update{{U: 3, V: 3, Delta: 1}, {U: 1, V: 2}})
		sameState(t, "no-op batches", par, half)
		par.IngestParallel(&stream.Stream{N: n, Updates: rest}, workers)
		sameState(t, "parallel ingest", par, seq)
		g1, e1 := seq.GammaEstimate(Triangle)
		g2, e2 := par.GammaEstimate(Triangle)
		if g1 != g2 || e1 != e2 {
			t.Fatalf("workers=%d: gamma (%v, %d) differs from sequential (%v, %d)", workers, g2, e2, g1, e1)
		}
	}
}
