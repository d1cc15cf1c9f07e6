package runtime

import (
	"testing"

	"graphsketch/internal/stream"
)

// FuzzDecodeBatch pins that WAL record decoding never panics and never
// fabricates updates from unframed bytes.
func FuzzDecodeBatch(f *testing.F) {
	f.Add((&mirror{n: 16}).frame([]stream.Update{{U: 1, V: 2, Delta: 1}, {U: 3, V: 4, Delta: -1}}, 2))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ups, pos, rest, status := decodeBatch(data)
		if status != recOK {
			return
		}
		if pos < 0 {
			t.Fatalf("decode produced negative position %d", pos)
		}
		// A valid frame must fully consume its declared payload.
		if len(ups)+len(rest) > len(data) {
			t.Fatalf("decode fabricated data: %d updates + %d rest from %d bytes", len(ups), len(rest), len(data))
		}
	})
}
