package sparsify

import (
	"runtime"
	"testing"

	"graphsketch/internal/sketchcore"
)

// TestDecodeWorkersDefault: decode workers follow GOMAXPROCS when unset and
// honor an explicit override.
func TestDecodeWorkersDefault(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	s := NewSimple(SimpleConfig{N: 32, Seed: 1})
	if got := sketchcore.Workers(s.decWorkers); got != 4 {
		t.Fatalf("unset decode workers = %d, want GOMAXPROCS (4)", got)
	}
	s.SetDecodeWorkers(2)
	if got := sketchcore.Workers(s.decWorkers); got != 2 {
		t.Fatalf("overridden decode workers = %d, want 2", got)
	}
	s.SetDecodeWorkers(0)
	if got := sketchcore.Workers(s.decWorkers); got != 4 {
		t.Fatalf("re-unset decode workers = %d, want GOMAXPROCS (4)", got)
	}
}
