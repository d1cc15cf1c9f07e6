package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"testing"
)

func sampleManifest() Manifest {
	return Manifest{Banks: []uint64{0, 0x68656c6c6f, 0xDEADBEEFCAFEF00D, 3}}
}

// gsd1Manifest hand-builds a manifest in the retired GSD1 layout (version
// 1, a length varint before every leaf), root included.
func gsd1Manifest(banks []uint64) []byte {
	buf := append([]byte("GSD1"), 1)
	buf = binary.AppendUvarint(buf, uint64(len(banks)))
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var rec [16]byte
	for _, d := range banks {
		buf = binary.AppendUvarint(buf, 8)
		buf = binary.LittleEndian.AppendUint64(buf, d)
		binary.LittleEndian.PutUint64(rec[0:8], 8)
		binary.LittleEndian.PutUint64(rec[8:16], d)
		h.Write(rec[:])
	}
	return binary.LittleEndian.AppendUint64(buf, h.Sum64())
}

func TestManifestRoundTrip(t *testing.T) {
	for _, m := range []Manifest{{}, sampleManifest()} {
		enc := EncodeManifest(m)
		got, rest, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode left %d trailing bytes", len(rest))
		}
		if !got.Equal(m) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, m)
		}
		if got.Root() != m.Root() {
			t.Fatal("root changed across round trip")
		}
		// Canonical: re-encoding reproduces the bytes.
		if !bytes.Equal(EncodeManifest(got), enc) {
			t.Fatal("re-encoding is not bit-identical")
		}
	}
}

func TestManifestTrailingBytes(t *testing.T) {
	enc := append(EncodeManifest(sampleManifest()), 0xAA, 0xBB)
	_, rest, err := DecodeManifest(enc)
	if err != nil {
		t.Fatalf("decode with trailer: %v", err)
	}
	if !bytes.Equal(rest, []byte{0xAA, 0xBB}) {
		t.Fatalf("rest = %x", rest)
	}
}

func TestManifestRootSensitivity(t *testing.T) {
	m := sampleManifest()
	root := m.Root()

	digestFlip := sampleManifest()
	digestFlip.Banks[2] ^= 1
	if digestFlip.Root() == root {
		t.Fatal("root ignored a digest flip")
	}

	swapped := sampleManifest()
	swapped.Banks[0], swapped.Banks[1] = swapped.Banks[1], swapped.Banks[0]
	if swapped.Root() == root {
		t.Fatal("root ignored bank reordering")
	}

	truncated := Manifest{Banks: m.Banks[:len(m.Banks)-1]}
	if truncated.Root() == root {
		t.Fatal("root ignored a dropped bank")
	}
}

func TestManifestDecodeRejects(t *testing.T) {
	valid := EncodeManifest(sampleManifest())
	cases := map[string][]byte{
		"empty":     {},
		"short":     valid[:3],
		"bad magic": append([]byte("GSXX"), valid[4:]...),
		"bad ver":   append(append([]byte{}, valid[:4]...), append([]byte{9}, valid[5:]...)...),
		"truncated": valid[:len(valid)-3],
		"no root":   valid[:len(valid)-8],
	}
	// Oversized count: header claims 1e6 banks with 10 bytes of body.
	over := append([]byte("GSD2"), ManifestVersion)
	over = binary.AppendUvarint(over, 1_000_000)
	over = append(over, make([]byte, 10)...)
	cases["oversized count"] = over
	// Count beyond the absolute cap even with enough bytes declared short.
	capped := append([]byte("GSD2"), ManifestVersion)
	capped = binary.AppendUvarint(capped, maxManifestBanks+1)
	cases["count cap"] = capped
	// Bit flip anywhere in a leaf record breaks the root check.
	flipped := append([]byte{}, valid...)
	flipped[7] ^= 0x40
	cases["bit flip"] = flipped
	// The retired layout, internally consistent, is refused outright.
	cases["gsd1"] = gsd1Manifest(sampleManifest().Banks)

	for name, data := range cases {
		if _, _, err := DecodeManifest(data); err == nil {
			t.Errorf("%s: decode accepted corrupt manifest", name)
		}
	}
}

func TestManifestDiff(t *testing.T) {
	local := sampleManifest()
	remote := sampleManifest()
	if ids := local.Diff(remote); len(ids) != 0 {
		t.Fatalf("identical manifests diff to %v", ids)
	}
	remote.Banks[1] ^= 7
	remote.Banks[3] = 99
	if ids := local.Diff(remote); len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("diff = %v, want [1 3]", ids)
	}
	// Remote has banks local lacks: they all show up.
	longer := Manifest{Banks: append(append([]uint64{}, local.Banks...), 2)}
	if ids := local.Diff(longer); len(ids) != 1 || ids[0] != 4 {
		t.Fatalf("diff vs longer = %v, want [4]", ids)
	}
	// Local has extra banks: nothing to pull, count mismatch is the
	// root/Equal check's job.
	shorter := Manifest{Banks: local.Banks[:2]}
	if ids := local.Diff(shorter); len(ids) != 0 {
		t.Fatalf("diff vs shorter = %v, want []", ids)
	}
	if local.Equal(shorter) {
		t.Fatal("Equal ignored a count mismatch")
	}
}

// FuzzDecodeManifest pins that the GSD2 decoder never panics, never
// over-allocates from a hostile count, never accepts the retired GSD1
// layout (its seeds, here and in testdata, must all be refused), and that
// anything it accepts survives an encode/decode round trip with root
// intact. (Byte-identity is pinned only for encoder-produced manifests —
// the decoder tolerates a non-minimal count varint, same liberal-decoder
// stance as the cell codec.)
func FuzzDecodeManifest(f *testing.F) {
	valid := EncodeManifest(sampleManifest())
	f.Add(valid)
	f.Add(EncodeManifest(Manifest{}))
	f.Add(valid[:len(valid)-5]) // truncated
	flipped := append([]byte{}, valid...)
	flipped[9] ^= 0x10
	f.Add(flipped) // bit-flipped leaf
	over := append([]byte("GSD2"), ManifestVersion)
	over = binary.AppendUvarint(over, 1<<40)
	f.Add(over) // oversized count
	f.Add(gsd1Manifest(sampleManifest().Banks))
	f.Add(gsd1Manifest(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, _, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte("GSD1")) {
			t.Fatal("decoder accepted a GSD1 manifest")
		}
		again, rest, err := DecodeManifest(EncodeManifest(m))
		if err != nil || len(rest) != 0 || !again.Equal(m) || again.Root() != m.Root() {
			t.Fatalf("accepted manifest failed re-encode round trip: %v", err)
		}
	})
}
