package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"graphsketch"
	"graphsketch/internal/runtime"
	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Canonical bytes of the publishFixture bundle, captured at the commit
// before the write-path rework (9a53e71): the full payload and manifest root
// with the base graph loaded, and again after the 256-toggle step. An
// encoder change that moves a byte fails here.
const (
	goldenBaseSHA     = "f35873acf37e7736e1d96608649ab4949dfef47fdaac7f57696ed03c637c74bc"
	goldenBaseRoot    = uint64(0x2e1745971435152c)
	goldenToggledSHA  = "8d68516b64d2224513e1dec2544a1f7ec9529221fe6765c79d6c777024fb6165"
	goldenToggledRoot = uint64(0x69cd8960df391553)
)

// goldenBanks pins MarshalBanks at the same commit for each id-list shape,
// on the small test bundle (the race detector multiplies a default bundle's
// 130 MB): nil (every bank), a subset across the three bank kinds with a
// duplicate, and the empty list (manifest only) — each with a first stream
// loaded and again after a second one dirties banks.
var goldenBanks = []struct {
	name          string
	ids           []int
	base, toggled string
}{
	{"nil", nil,
		"f4438194faa60eb6c5b8194e73bef9371a71f1ec1d229a3b757380827e35f1b6",
		"3a678a97088fd122645afaf637e6788cf3cb1a274602a19747a22e9827e9db18"},
	{"subset", []int{0, 2, 2, 9, 17, 18, 25},
		"e8148f1c7e243b2dfa65614bb05f903b2c614cc89bc2779afc98a29a2461a29b",
		"e22eda6b0fd3a65281601b40a1d0e605f5d010f093194bb339bb717d18c3aef2"},
	{"empty", []int{},
		"cde461bc65ccc21910394eb33a3082bb145309b87aae5810294a04a7c6fdcd14",
		"eb9daee1b7c9acbeb0e1c94facd42781bec5a295691a4374728ef0b1d5ff6648"},
}

func TestBundleGoldenBytes(t *testing.T) {
	cfg, base, toggles := publishFixture()
	b := NewBundle(cfg)
	check := func(stage, wantSHA string, wantRoot uint64) {
		t.Helper()
		data, err := b.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		man, err := b.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(data); got != wantSHA || man.Root() != wantRoot {
			t.Fatalf("%s: payload sha %s root %#x, want %s %#x", stage, got, man.Root(), wantSHA, wantRoot)
		}
	}
	b.UpdateBatch(base)
	check("base", goldenBaseSHA, goldenBaseRoot)
	b.UpdateBatch(toggles)
	check("toggled", goldenToggledSHA, goldenToggledRoot)
}

// TestMarshalBanksGolden pins every id-list shape against the parent's
// bytes, and requires the encode-once path taken for dirty banks to emit
// what a bundle with a current digest cache emits.
func TestMarshalBanksGolden(t *testing.T) {
	cfg := testBundleConfig()
	base, toggles := bundleStream(3).Updates, bundleStream(8).Updates[:256]
	for _, g := range goldenBanks {
		t.Run(g.name, func(t *testing.T) {
			b := NewBundle(cfg)
			for _, stage := range []struct {
				ups  []stream.Update
				want string
			}{{base, g.base}, {toggles, g.toggled}} {
				b.UpdateBatch(stage.ups)
				clean := b.Clone()
				if err := clean.RecomputeDigests(); err != nil {
					t.Fatal(err)
				}
				dirty, err := b.MarshalBanks(g.ids)
				if err != nil {
					t.Fatal(err)
				}
				want, err := clean.MarshalBanks(g.ids)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dirty, want) {
					t.Fatal("dirty-cache marshal differs from clean-cache marshal")
				}
				if got := sha(dirty); got != stage.want {
					t.Fatalf("sha %s, want %s", got, stage.want)
				}
			}
		})
	}
}

// TestResidentBytesInvariant pins the O(1) accounting to the scanned one
// across every way a bundle's state is produced or replaced.
func TestResidentBytesInvariant(t *testing.T) {
	cfg := testBundleConfig()
	base, toggles := bundleStream(3).Updates, bundleStream(8).Updates[:256]
	check := func(stage string, b *Bundle) {
		t.Helper()
		if got, want := b.ResidentBytes(), b.Footprint().ResidentBytes; got != want {
			t.Fatalf("%s: ResidentBytes %d != Footprint().ResidentBytes %d", stage, got, want)
		}
	}
	src := NewBundle(cfg)
	check("new", src)
	src.UpdateBatch(base)
	check("UpdateBatch", src)
	payload, err := src.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	check("MarshalBinaryCompact", src)

	fresh := NewBundle(cfg)
	if err := fresh.MergeBytes(payload); err != nil {
		t.Fatal(err)
	}
	check("MergeBytes into fresh", fresh)
	if err := fresh.MergeBytes(payload); err != nil {
		t.Fatal(err)
	}
	check("MergeBytes into live", fresh)

	cl := src.Clone()
	check("Clone", cl)

	src.UpdateBatch(toggles)
	theirs, err := src.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	mine, err := cl.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	var diff []int
	for id := range theirs.Banks {
		if theirs.Banks[id] != mine.Banks[id] {
			diff = append(diff, id)
		}
	}
	delta, err := src.MarshalBanks(diff)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.InstallBanks(delta); err != nil {
		t.Fatal(err)
	}
	check("InstallBanks", cl)

	wal := runtime.NewWAL(cfg.N)
	wal.Append(base)
	if err := wal.Snapshot(src); err != nil {
		t.Fatal(err)
	}
	wal.Append(toggles)
	sk, _, err := wal.Recover(func() runtime.Sketch { return NewBundle(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	recovered := sk.(*Bundle)
	check("Recover", recovered)

	live := NewBundle(cfg)
	live.UpdateBatch(base[:100])
	*live = *recovered // the sync installs' wholesale replace
	check("*live = *fresh", live)
}

// TestMergeBytesAllOrNothing covers both arms of a failed merge: a
// factory-fresh target (merged in place) comes back an empty bundle, a live
// target (clone-and-swap) is left untouched.
func TestMergeBytesAllOrNothing(t *testing.T) {
	cfg := testBundleConfig()
	src := NewBundle(cfg)
	src.UpdateBatch(bundleStream(2).Updates)
	good, err := src.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	bad := corruptLastSketchBank(t, src)

	empty, err := NewBundle(cfg).MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewBundle(cfg)
	if err := fresh.MergeBytes(bad); !errors.Is(err, graphsketch.ErrBadEncoding) {
		t.Fatalf("merge of a corrupt bank into a fresh bundle: %v", err)
	}
	if got, _ := fresh.MarshalBinaryCompact(); !bytes.Equal(got, empty) {
		t.Fatal("failed merge left a fresh bundle non-empty")
	}
	if err := fresh.MergeBytes(good); err != nil {
		t.Fatalf("merge after a failed merge: %v", err)
	}
	if got, _ := fresh.MarshalBinaryCompact(); !bytes.Equal(got, good) {
		t.Fatal("fresh bundle not reusable after a failed merge")
	}

	live := NewBundle(cfg)
	live.UpdateBatch(bundleStream(6).Updates)
	before, _ := live.MarshalBinaryCompact()
	if err := live.MergeBytes(bad); !errors.Is(err, graphsketch.ErrBadEncoding) {
		t.Fatalf("merge of a corrupt bank into a live bundle: %v", err)
	}
	if got, _ := live.MarshalBinaryCompact(); !bytes.Equal(got, before) {
		t.Fatal("failed merge mutated a live bundle")
	}
}

// corruptLastSketchBank returns src's full payload with the last sparsifier
// bank cut short by a byte and its manifest leaf rebuilt to match: a payload
// that passes every digest check and fails only inside that bank's decode,
// after every earlier bank has been folded in.
func corruptLastSketchBank(t *testing.T, src *Bundle) []byte {
	t.Helper()
	man, err := src.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	victim := src.mc.NumBanks() + src.sp.NumBanks() - 1
	total := src.NumBanks()
	out := src.appendConfigHeader(nil)
	out = wire.AppendUvarint(out, uint64(total))
	out = wire.AppendUvarint(out, uint64(total))
	for id := 0; id < total; id++ {
		bankB, err := src.appendBank(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		if id == victim {
			bankB = bankB[:len(bankB)-1]
			man.Banks[id] = wire.BankRef{Len: uint64(len(bankB)), Digest: wire.BankDigest(bankB)}
		}
		out = wire.AppendUvarint(out, uint64(id))
		out = wire.AppendUvarint(out, uint64(len(bankB)))
		out = append(out, bankB...)
	}
	return wire.AppendManifest(out, man)
}
