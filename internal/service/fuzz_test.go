package service

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// FuzzDecodeLogSuffix feeds arbitrary bytes to the replica side of the log
// rung: decodeLogSuffix, then updateVerified against the root the honest
// suffix leads to. It must never panic, and it must reject every body that
// does not land the bundle exactly on the honest state — leaving the
// bundle's bytes as they were — with an error that says why.
func FuzzDecodeLogSuffix(f *testing.F) {
	cfg := modelBundleConfig()
	st := stream.GNP(cfg.N, 0.5, 11).WithChurn(60, 12)
	prefix, suffix := st.Updates[:40], st.Updates[40:]
	marshal := func(b *Bundle) []byte {
		data, err := b.MarshalBinaryCompact()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	b := NewBundle(cfg)
	b.UpdateBatch(prefix)
	base := marshal(b)
	honest := NewBundle(cfg)
	honest.UpdateBatch(st.Updates)
	root, want := honest.manifest().Root(), marshal(honest)

	valid := EncodeUpdates(suffix)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10 // bit flip: the envelope's checksum fails
	f.Add(flipped)
	resealed := stream.AppendBatch(nil, suffix)
	resealed[len(resealed)-1] ^= 0x04 // bit flip, re-sealed: only the root can tell
	f.Add(wire.Seal(resealed))
	f.Add(EncodeUpdates(append(slices.Clone(suffix), stream.Update{U: 1, V: cfg.N, Delta: 1}))) // vertex out of range
	f.Fuzz(func(t *testing.T, data []byte) {
		ups, err := decodeLogSuffix(data, cfg.N)
		if err == nil {
			var undo func()
			if undo, err = b.updateVerified(ups, root); err == nil {
				if !bytes.Equal(marshal(b), want) {
					t.Fatal("an accepted suffix did not land on the honest state")
				}
				undo()
			}
		}
		if !bytes.Equal(marshal(b), base) {
			t.Fatal("a suffix moved the bundle's bytes")
		}
		if err != nil && !errors.Is(err, wire.ErrBadEncoding) && !errors.Is(err, ErrDigestMismatch) {
			t.Fatalf("rejected with %v, want ErrBadEncoding or ErrDigestMismatch", err)
		}
	})
}
