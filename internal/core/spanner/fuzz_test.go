package spanner

import (
	"testing"

	"graphsketch/internal/wire"
)

// FuzzUnmarshalBinary pins that SPG1 payloads — truncated, bit-flipped,
// tagged with the retired 0x00 cell format, or arbitrary — error instead of panicking or allocating past the decode
// cell budget (the header's bucket count once admitted 2^30-bucket
// grids; the budget check now refuses them before construction).
func FuzzUnmarshalBinary(f *testing.F) {
	gs := NewGroupSampler(1<<16, 64, 77)
	for i := uint64(0); i < 300; i++ {
		gs.Update(i%7, i*2654435761%(1<<16), int64(i%3)-1)
	}
	compact, err := gs.MarshalBinaryCompact()
	if err != nil {
		f.Fatal(err)
	}
	retagged := append([]byte(nil), compact...)
	retagged[36] = 0x00 // the cell payload's tag byte, after the 36-byte header
	f.Add(retagged)
	f.Add(compact)
	f.Add(compact[:len(compact)/2])
	mut := append([]byte(nil), compact...)
	mut[30] ^= 0x80 // inside the bucket-count header field
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		prev := wire.SetDecodeCellBudget(1 << 22)
		defer wire.SetDecodeCellBudget(prev)
		var got GroupSampler
		if err := got.UnmarshalBinary(data); err == nil {
			if _, err := got.MarshalBinaryCompact(); err != nil {
				t.Fatalf("decoded sampler cannot re-marshal: %v", err)
			}
		}
	})
}
