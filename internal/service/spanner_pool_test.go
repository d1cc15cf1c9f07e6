package service

import (
	"strings"
	"sync"
	"testing"

	"graphsketch"
	"graphsketch/internal/stream"
)

// TestEpochSpannerPooled: every epoch of a tenant builds its spanner on a
// builder from the pool its bundle shares with every clone. Cold queries on
// a run of epochs, two of them at once from separate goroutines, must
// answer exactly what a fresh graphsketch.BaswanaSenSpanner builds from the
// epoch's updates, and neither a corrupt-log epoch's panic nor a build that
// panics inside the builder may change the next healthy build.
func TestEpochSpannerPooled(t *testing.T) {
	cfg := testBundleConfig()
	cfg.SpannerK = 3 // two sweeps plus the final pass
	ups := bundleStream(41).Updates
	live := NewBundle(cfg)
	type epoch struct {
		ep   *Epoch
		want graphsketch.SpannerResult
	}
	var epochs []epoch
	for pos := 0; pos < len(ups); {
		end := min(pos+97, len(ups))
		live.UpdateBatch(ups[pos:end])
		pos = end
		want := graphsketch.BaswanaSenSpanner(&stream.Stream{N: cfg.N, Updates: ups[:pos]}, cfg.SpannerK, cfg.Seed)
		epochs = append(epochs, epoch{&Epoch{Bundle: live.Clone(), Pos: pos}, want})
	}
	check := func(e epoch) {
		t.Helper()
		got := e.ep.Spanner()
		ge, we := got.Spanner.Edges(), e.want.Spanner.Edges()
		if len(ge) != len(we) || got.Passes != e.want.Passes {
			t.Errorf("epoch at %d: %d edges in %d passes, fresh builder %d in %d",
				e.ep.Pos, len(ge), got.Passes, len(we), e.want.Passes)
			return
		}
		for i := range we {
			if ge[i] != we[i] {
				t.Errorf("epoch at %d: edge %d is %+v, fresh builder %+v", e.ep.Pos, i, ge[i], we[i])
				return
			}
		}
	}
	if len(epochs) < 6 {
		t.Fatalf("fixture publishes %d epochs", len(epochs))
	}
	// One at a time: each build takes the builder the previous one returned.
	for _, e := range epochs[:2] {
		check(e)
	}
	if live.spanners.idle.Load() == nil {
		t.Fatal("no builder returned to the pool after a build")
	}
	// Two at once: each takes its own builder; the pool keeps one.
	for i := 2; i+1 < len(epochs); i += 2 {
		var wg sync.WaitGroup
		for _, e := range epochs[i : i+2] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				check(e)
			}()
		}
		wg.Wait()
	}

	// An epoch whose log names a vertex out of range panics before it
	// builds, and the next healthy epoch is unaffected.
	bad := live.Clone()
	bad.spLog = append(bad.spLog, stream.Update{U: cfg.N + 5, V: 1, Delta: 1})
	mustPanic(t, "corrupt spanner log", func() { (&Epoch{Bundle: bad}).Spanner() })
	last := epochs[len(epochs)-1]
	check(epoch{&Epoch{Bundle: live.Clone(), Pos: last.ep.Pos}, last.want})

	// A build that panics inside the builder never returns it to the pool.
	if live.spanners.idle.Load() == nil {
		t.Fatal("no builder in the pool before the panicking build")
	}
	mustPanic(t, "does not match builder", func() {
		live.spanners.build(cfg, &stream.Stream{N: cfg.N + 1, Updates: ups[:10]})
	})
	if live.spanners.idle.Load() != nil {
		t.Fatal("the builder of a panicking build went back to the pool")
	}
	check(epoch{&Epoch{Bundle: live.Clone(), Pos: last.ep.Pos}, last.want})
}

// mustPanic runs fn and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		msg, _ := r.(string)
		if r == nil || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}
