package sparserec

import (
	"testing"

	"graphsketch/internal/wire"
)

// FuzzUnmarshalBinary pins that SRK2 payloads — truncated, bit-flipped,
// re-labelled with the retired SRK1 magic, or arbitrary — error instead of
// panicking or allocating past the decode cell budget.
func FuzzUnmarshalBinary(f *testing.F) {
	s := New(8, 42)
	for i := uint64(0); i < 200; i++ {
		s.Update(i*i+3, int64(i%5)-2)
	}
	compact, err := s.MarshalBinaryCompact()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte("SRK1"), compact[4:]...))
	f.Add(compact)
	f.Add(compact[:len(compact)-3])
	mut := append([]byte(nil), compact...)
	mut[40] ^= 0x04
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		prev := wire.SetDecodeCellBudget(1 << 22)
		defer wire.SetDecodeCellBudget(prev)
		var got Sketch
		if err := got.UnmarshalBinary(data); err == nil {
			// An accepted payload must re-marshal cleanly.
			if _, err := got.MarshalBinaryCompact(); err != nil {
				t.Fatalf("decoded sketch cannot re-marshal: %v", err)
			}
		}
	})
}
