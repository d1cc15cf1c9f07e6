package service

import (
	"bytes"
	goruntime "runtime"
	"strings"
	"testing"

	"graphsketch/internal/stream"
)

func testBundleConfig() BundleConfig {
	return BundleConfig{N: 48, K: 4, Eps: 1.0, SpannerK: 2, Seed: 7}
}

func bundleStream(seed uint64) *stream.Stream {
	return stream.GNP(48, 0.15, seed).WithChurn(300, seed^1)
}

// TestBundleRoundTrip pins that marshal → merge-into-fresh reproduces the
// bundle bit-identically — the property WAL snapshot recovery rides on.
func TestBundleRoundTrip(t *testing.T) {
	st := bundleStream(3)
	b := NewBundle(testBundleConfig())
	b.UpdateBatch(st.Updates)
	data, err := b.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	fresh := NewBundle(testBundleConfig())
	if err := fresh.MergeBytes(data); err != nil {
		t.Fatalf("merge: %v", err)
	}
	got, err := fresh.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("remarshal: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip not bit-identical")
	}
	if _, err := fresh.MinCut(); err != nil {
		t.Fatalf("mincut on restored bundle: %v", err)
	}
	if res := fresh.Spanner(); res.Spanner.NumEdges() == 0 {
		t.Fatal("spanner empty on restored bundle")
	}
}

// TestBundleLinearity pins that merging two half-stream bundles equals
// ingesting the full stream — the distributed-sites property of the paper
// lifted to the composite.
func TestBundleLinearity(t *testing.T) {
	st := bundleStream(9)
	half := len(st.Updates) / 2

	full := NewBundle(testBundleConfig())
	full.UpdateBatch(st.Updates)

	a := NewBundle(testBundleConfig())
	a.UpdateBatch(st.Updates[:half])
	b := NewBundle(testBundleConfig())
	b.UpdateBatch(st.Updates[half:])
	bBytes, err := b.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := a.MergeBytes(bBytes); err != nil {
		t.Fatalf("merge: %v", err)
	}

	got, err := a.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	want, err := full.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged halves not bit-identical to full ingest")
	}
}

// TestBundleCloneIndependence pins the epoch-snapshot primitive at the
// bundle level: updating the original never perturbs a clone.
func TestBundleCloneIndependence(t *testing.T) {
	st := bundleStream(5)
	half := len(st.Updates) / 2
	b := NewBundle(testBundleConfig())
	b.UpdateBatch(st.Updates[:half])
	cl := b.Clone()
	at, err := cl.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	b.UpdateBatch(st.Updates[half:])
	after, err := cl.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(at, after) {
		t.Fatal("updating the original perturbed the clone")
	}
	if _, err := cl.MinCut(); err != nil {
		t.Fatalf("clone mincut: %v", err)
	}
}

// TestBundleConfigMismatch pins that a payload from a differently-shaped
// bundle is rejected, not aliased into the wrong hash space.
func TestBundleConfigMismatch(t *testing.T) {
	b := NewBundle(testBundleConfig())
	other := testBundleConfig()
	other.Seed++
	ob := NewBundle(other)
	ob.UpdateBatch(bundleStream(1).Updates[:50])
	data, err := ob.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := b.MergeBytes(data); err == nil {
		t.Fatal("merge across configs succeeded")
	}
}

// TestBundleCorruptBytesError pins the decode convention: corrupt member
// payload bytes error (never panic) and leave the bundle unchanged.
func TestBundleCorruptBytesError(t *testing.T) {
	src := NewBundle(testBundleConfig())
	src.UpdateBatch(bundleStream(2).Updates)
	data, err := src.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	dst := NewBundle(testBundleConfig())
	before, _ := dst.MarshalBinaryCompact()
	for _, i := range []int{len(data) / 3, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x41
		if err := dst.MergeBytes(bad); err == nil {
			// Some flips only touch spanner-log deltas and decode fine —
			// that is the trusted section; skip those.
			continue
		}
		after, _ := dst.MarshalBinaryCompact()
		if !bytes.Equal(before, after) {
			t.Fatalf("failed merge at flip %d mutated the bundle", i)
		}
	}
}

// TestBundleSpannerPanicsOnCorruptLog pins the corrupt-payload fixture the
// service's panic-isolation middleware is exercised with: a merged payload
// whose spanner-log section names an out-of-range vertex passes MergeBytes
// (the section is trusted at decode time) and panics at Spanner() time.
func TestBundleSpannerPanicsOnCorruptLog(t *testing.T) {
	evil := NewBundle(testBundleConfig())
	evil.UpdateBatch(bundleStream(4).Updates[:100])
	evil.spLog = append(evil.spLog, stream.Update{U: 9999, V: 3, Delta: 1})
	evil.coalesced = len(evil.spLog)
	evil.RecomputeDigests() // the raw append bypassed the maintained leaves
	payload, err := evil.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	b := NewBundle(testBundleConfig())
	if err := b.MergeBytes(payload); err != nil {
		t.Fatalf("merge rejected the fixture payload: %v", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Spanner() on corrupt log did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "corrupt spanner log") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	b.Spanner()
}

// TestUpdateBatchScratchHeap pins the per-arena ApplyPlan scratch to the
// batch: the first 256-update batch into a serve-default bundle (about 1,440
// arenas) may grow the live heap by at most 16 MB. Scratch sized to the
// kernel's 4,096-edge chunk in every arena cost about 165 MB here.
func TestUpdateBatchScratchHeap(t *testing.T) {
	cfg, _, toggles := publishFixture()
	b := NewBundle(cfg)
	// A fresh bundle's arenas sit on the zero slab and take their cells at
	// their first write: take them before measuring, so that the growth
	// measured is the scratch alone.
	b.ownArenas()
	heap := func() uint64 {
		var ms goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	b.UpdateBatch(toggles)
	grown := int64(heap()) - int64(before)
	goruntime.KeepAlive(b)
	t.Logf("first %d-update batch grew the heap by %.1f MB", len(toggles), float64(grown)/(1<<20))
	if grown > 16<<20 {
		t.Fatalf("first %d-update batch grew the heap by %.1f MB, want at most 16 MB", len(toggles), float64(grown)/(1<<20))
	}
}
