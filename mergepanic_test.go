package graphsketch

import (
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"graphsketch/internal/l0"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/sparserec"
	"graphsketch/internal/wire"
)

// TestIncompatibleMergePanicMessages pins the shared convention for
// incompatible-merge panics across the three cell-bank layers: the message
// is "<pkg>: incompatible merge: <dimension> mismatch", naming the first
// mismatching dimension, so an operator mixing sketches from misconfigured
// sites sees WHICH parameter diverged rather than a generic complaint.
func TestIncompatibleMergePanicMessages(t *testing.T) {
	mustPanic := func(t *testing.T, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("expected panic %q, got none", want)
			}
			if got, ok := r.(string); !ok || got != want {
				t.Fatalf("panic = %v, want %q", r, want)
			}
		}()
		f()
	}

	cases := []struct {
		name string
		want string
		run  func()
	}{
		{
			"l0 universe", "l0: incompatible merge: universe mismatch",
			func() { l0.New(1<<10, 1).Add(l0.New(1<<12, 1)) },
		},
		{
			"l0 reps", "l0: incompatible merge: reps mismatch",
			func() { l0.NewWithReps(1<<10, 1, 4).Add(l0.NewWithReps(1<<10, 1, 5)) },
		},
		{
			"l0 seed", "l0: incompatible merge: seed mismatch",
			func() { l0.New(1<<10, 1).Add(l0.New(1<<10, 2)) },
		},
		{
			"sparserec k", "sparserec: incompatible merge: k mismatch",
			func() { sparserec.New(4, 1).Add(sparserec.New(8, 1)) },
		},
		{
			"sparserec seed", "sparserec: incompatible merge: seed mismatch",
			func() { sparserec.New(4, 1).Add(sparserec.New(4, 2)) },
		},
		{
			"sparserec bank n", "sparserec: incompatible merge: n mismatch",
			func() { sparserec.NewBank(4, 2, 1).Add(sparserec.NewBank(5, 2, 1)) },
		},
		{
			"sparserec bank seed", "sparserec: incompatible merge: seed mismatch",
			func() { sparserec.NewBank(4, 2, 1).Add(sparserec.NewBank(4, 2, 9)) },
		},
		{
			"sketchcore slots", "sketchcore: incompatible merge: slots mismatch",
			func() {
				a := sketchcore.New(sketchcore.Config{Slots: 4, Universe: 16, Reps: 2, Seed: 1})
				a.Add(sketchcore.New(sketchcore.Config{Slots: 5, Universe: 16, Reps: 2, Seed: 1}))
			},
		},
		{
			"sketchcore reps", "sketchcore: incompatible merge: reps mismatch",
			func() {
				a := sketchcore.New(sketchcore.Config{Slots: 4, Universe: 16, Reps: 2, Seed: 1})
				a.Add(sketchcore.New(sketchcore.Config{Slots: 4, Universe: 16, Reps: 3, Seed: 1}))
			},
		},
		{
			"sketchcore universe", "sketchcore: incompatible merge: universe mismatch",
			func() {
				a := sketchcore.New(sketchcore.Config{Slots: 4, Universe: 16, Reps: 2, Seed: 1})
				a.Add(sketchcore.New(sketchcore.Config{Slots: 4, Universe: 17, Reps: 2, Seed: 1}))
			},
		},
		{
			"sketchcore seed", "sketchcore: incompatible merge: seed mismatch",
			func() {
				a := sketchcore.New(sketchcore.Config{Slots: 4, Universe: 16, Reps: 2, Seed: 1})
				a.Add(sketchcore.New(sketchcore.Config{Slots: 4, Universe: 16, Reps: 2, Seed: 2}))
			},
		},
		{
			"sketchcore mode", "sketchcore: incompatible merge: seeding mode mismatch",
			func() {
				a := sketchcore.New(sketchcore.Config{Slots: 2, Universe: 16, Reps: 2, Seed: 1})
				a.Add(sketchcore.New(sketchcore.Config{Slots: 2, Universe: 16, Reps: 2, SlotSeeds: []uint64{1, 2}}))
			},
		},
		{
			"sketchcore slot seeds", "sketchcore: incompatible merge: slot seeds mismatch",
			func() {
				a := sketchcore.New(sketchcore.Config{Slots: 2, Universe: 16, Reps: 2, SlotSeeds: []uint64{1, 2}})
				a.Add(sketchcore.New(sketchcore.Config{Slots: 2, Universe: 16, Reps: 2, SlotSeeds: []uint64{1, 3}}))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { mustPanic(t, tc.want, tc.run) })
	}
}

// TestWireErrorSurface pins the other side of the convention: everything
// reachable through wire bytes — truncation, corruption, parameter
// mismatch, unknown tag bytes, retired envelopes, absurd header dimensions
// — is an ERROR satisfying errors.Is(err, ErrBadEncoding), never a panic.
// Panics are reserved for in-process programmer errors (the table above);
// bytes are input.
func TestWireErrorSurface(t *testing.T) {
	sk := NewConnectivitySketch(32, 7)
	sk.Update(1, 2, 1)
	sk.Update(3, 4, 1)
	payload, err := sk.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	mustBad := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("want error, got nil")
		}
		if !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("error %v does not wrap ErrBadEncoding", err)
		}
	}

	t.Run("unmarshal truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 27, 28, len(payload) / 2, len(payload) - 1} {
			var got ConnectivitySketch
			mustBad(t, got.UnmarshalBinary(payload[:n]))
		}
	})
	t.Run("unmarshal bit flips", func(t *testing.T) {
		// Flip one bit in each region: magic, header fields, body.
		for _, pos := range []int{0, 5, 21, 30, len(payload) - 1} {
			mut := append([]byte(nil), payload...)
			mut[pos] ^= 0x10
			var got ConnectivitySketch
			if err := got.UnmarshalBinary(mut); err != nil {
				mustBad(t, err)
			}
			// Some body flips decode (the compact codec has no whole-payload
			// checksum — transport integrity is the envelope layer's job);
			// what is pinned here is that nothing panics.
		}
	})
	t.Run("merge parameter mismatch", func(t *testing.T) {
		other := NewConnectivitySketch(64, 7) // wrong n
		mustBad(t, other.MergeBytes(payload))
		reseeded := NewConnectivitySketch(32, 8) // wrong seed
		mustBad(t, reseeded.MergeBytes(payload))
	})
	t.Run("merge uninitialized", func(t *testing.T) {
		var zero ConnectivitySketch
		if err := zero.MergeBytes(payload); err == nil {
			t.Fatal("zero-value MergeBytes must error")
		}
	})
	t.Run("unknown format tag", func(t *testing.T) {
		// A payload whose per-bank tag byte is not 0x01 must error on
		// decode and merge; 0x00 is the retired fixed-size cell format.
		for _, tag := range []byte{0x00, 0xEE} {
			mut := append([]byte(nil), payload...)
			mut[28] = tag // first bank's tag (after the 28-byte header)
			var got ConnectivitySketch
			mustBad(t, got.UnmarshalBinary(mut))
			mustBad(t, NewConnectivitySketch(32, 7).MergeBytes(mut))
		}
	})
	t.Run("retired envelopes", func(t *testing.T) {
		// The AGM2, L0S1 and SRK1 envelopes are no longer decoded: every
		// decoder must reject them as bad encodings.
		rec := sparserec.New(4, 1)
		rec.Update(3, 1)
		srk, err := rec.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		srk1 := append([]byte("SRK1"), srk[4:]...)
		var back sparserec.Sketch
		if err := back.UnmarshalBinary(srk1); !errors.Is(err, wire.ErrBadEncoding) || !strings.HasPrefix(err.Error(), "sparserec: ") {
			t.Fatalf("SRK1: %v, want a sparserec: wire.ErrBadEncoding", err)
		}
		for _, legacy := range [][]byte{
			append([]byte("AGM2"), payload[4:]...),
			append(envelopeHeader("L0S1", 1<<10, 1, 4, 12), make([]byte, 4*12*32)...),
			srk1,
		} {
			for _, fw := range facadeWire {
				mustBad(t, fw.decode(legacy))
			}
		}
	})
	t.Run("oversized header rejected before allocation", func(t *testing.T) {
		// Patch the header to declare n = 2^24 (plausible per-field, an
		// ~0.5 TiB sketch in aggregate): the decode-cell budget must
		// refuse it without constructing anything.
		mut := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint64(mut[4:], 1<<24)
		var got ConnectivitySketch
		mustBad(t, got.UnmarshalBinary(mut))
	})
	t.Run("over-budget envelope headers", func(t *testing.T) {
		// Each header declares 150-350 MB of cells; under a 1<<22-cell budget
		// the decoder must refuse it before allocating any of them.
		prev := wire.SetDecodeCellBudget(1 << 22)
		defer wire.SetDecodeCellBudget(prev)
		for _, fw := range facadeWire {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := fw.decode(fw.overBudget)
			runtime.ReadMemStats(&after)
			mustBad(t, err)
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Fatalf("%s: rejecting the header allocated %d bytes", fw.name, d)
			}
		}
	})
}
