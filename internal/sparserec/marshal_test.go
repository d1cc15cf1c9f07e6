package sparserec

import (
	"errors"
	"strings"
	"testing"

	"graphsketch/internal/wire"
)

func TestMarshalRoundTrip(t *testing.T) {
	s := New(8, 3)
	for i := uint64(0); i < 6; i++ {
		s.Update(i*101, int64(i)+1)
	}
	enc, err := s.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	items, ok := back.Decode()
	if !ok || len(items) != 6 {
		t.Fatalf("decoded sketch lost items: %v %v", items, ok)
	}
	back.Sub(s)
	if !back.IsZero() {
		t.Fatal("decoded sketch differs from original")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	s := New(4, 1)
	s.Update(9, 2)
	enc, _ := s.MarshalBinaryCompact()
	var back Sketch
	for name, bad := range map[string][]byte{
		"short":         enc[:8],
		"truncated":     enc[:len(enc)-3],
		"trailing":      append(append([]byte{}, enc...), 0),
		"bad magic":     append([]byte("SRK1"), enc[4:]...),
		"retired tag":   append(append(append([]byte{}, enc[:36]...), 0x00), enc[37:]...),
		"implausible k": append(append([]byte{}, enc[:4]...), make([]byte, 32)...),
	} {
		if err := back.UnmarshalBinary(bad); !errors.Is(err, wire.ErrBadEncoding) || !strings.HasPrefix(err.Error(), "sparserec: ") {
			t.Fatalf("%s: UnmarshalBinary = %v, want a sparserec: wire.ErrBadEncoding", name, err)
		}
	}
}

func TestShipAndMergeSparseRecovery(t *testing.T) {
	a := New(8, 7)
	b := New(8, 7)
	a.Update(10, 1)
	b.Update(20, 2)
	wire, _ := a.MarshalBinaryCompact()
	var shipped Sketch
	if err := shipped.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}
	shipped.Add(b)
	items, ok := shipped.Decode()
	if !ok || len(items) != 2 {
		t.Fatalf("merged shipped sketch wrong: %v %v", items, ok)
	}
}
