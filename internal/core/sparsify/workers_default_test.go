package sparsify

import (
	"runtime"
	"testing"

	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
)

// TestIngestWorkersDefaultEngages: an unset worker count (<= 0) must default
// to GOMAXPROCS and actually go parallel — proven by the ShardedIngest spawn
// counter, not just by the (always bit-identical) result.
func TestIngestWorkersDefaultEngages(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const n = 64
	st := stream.UniformUpdates(n, 40000, 3)

	seq := NewSimple(SimpleConfig{N: n, K: 2, Seed: 9})
	seq.Ingest(st)

	par := NewSimple(SimpleConfig{N: n, K: 2, Seed: 9})
	before := sketchcore.ShardSpawns()
	par.IngestParallel(st, 0)
	spawned := sketchcore.ShardSpawns() - before
	if spawned != 3 {
		t.Fatalf("defaulted IngestParallel under GOMAXPROCS=4 spawned %d shard workers, want 3", spawned)
	}
	if !par.Equal(seq) {
		t.Fatal("defaulted parallel ingest diverged from sequential ingest")
	}
}

// TestDecodeWorkersDefault: decode workers follow GOMAXPROCS when unset and
// honor an explicit override.
func TestDecodeWorkersDefault(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	s := NewSimple(SimpleConfig{N: 32, Seed: 1})
	if got := s.decodeWorkers(); got != 4 {
		t.Fatalf("unset decode workers = %d, want GOMAXPROCS (4)", got)
	}
	s.SetDecodeWorkers(2)
	if got := s.decodeWorkers(); got != 2 {
		t.Fatalf("overridden decode workers = %d, want 2", got)
	}
	s.SetDecodeWorkers(0)
	if got := s.decodeWorkers(); got != 4 {
		t.Fatalf("re-unset decode workers = %d, want GOMAXPROCS (4)", got)
	}
}
