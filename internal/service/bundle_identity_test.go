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

// Canonical bytes of the publishFixture bundle: the full payload and
// manifest root with the base graph loaded, and again after the 256-toggle
// step. An encoder change that moves a byte fails here. Re-pinned when the
// manifest's leaves became linear digests (GSD2); TestBankSectionsGolden
// proves every byte before the manifest section is the one pinned before.
const (
	goldenBaseSHA     = "c8140ad12eca254c2ab020fdaf3a07c27a4431d4b95d6cc9b882817c8bdacd30"
	goldenBaseRoot    = uint64(0xbad347ea0c7d935a)
	goldenToggledSHA  = "fb9695049f763bb67f738caca8d54d6c606b5a05726cc44d9cc830f5342b4e49"
	goldenToggledRoot = uint64(0xa6c95784c242495)
)

// goldenBanks pins MarshalBanks at the same point for each id-list shape,
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
		"49b4e535019996b0e5c62708edcda91e4f31cc658e59e80eee7a5cc994eee571",
		"8c768d3b355c037bb22bbeb61720a9f3bcb6a61da565a29706727821b531f739"},
	{"subset", []int{0, 2, 2, 9, 17, 18, 25},
		"47ad95b3ec28c8e813cae22ef48506da53982a995806c1341793e3ed532cea11",
		"7e5ba54667b8f86c209b1787704e41ae665cc5b4bd6fb61f0d3597db3044fde3"},
	{"empty", []int{},
		"b679256114f1533b06a270b2169177c5b661d10b65937162508bcc8c6d381453",
		"5a525a9ed8922139d94da12884df94b629133cf612f3bb41e02990415cddde27"},
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

// TestMarshalBanksGolden pins every id-list shape, and requires a bundle
// whose leaves were just recomputed from its state to emit what the one
// with maintained leaves emits.
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
				rescanned := b.Clone()
				rescanned.RecomputeDigests()
				got, err := b.MarshalBanks(g.ids)
				if err != nil {
					t.Fatal(err)
				}
				want, err := rescanned.MarshalBanks(g.ids)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("maintained-leaf marshal differs from recomputed-leaf marshal")
				}
				if got := sha(got); got != stage.want {
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

	wal, err := runtime.OpenDiskWAL(t.TempDir(), cfg.N, runtime.DiskConfig{Policy: runtime.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if err := wal.Append(base); err != nil {
		t.Fatal(err)
	}
	if err := wal.Snapshot(src); err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(toggles); err != nil {
		t.Fatal(err)
	}
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
// bank cut short by a byte under its honest leaf (the digest of the
// untruncated bank): a payload whose framing and every other bank are
// sound, and which fails only inside that bank's decode, after every
// earlier bank has been folded in.
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
		}
		out = wire.AppendUvarint(out, uint64(id))
		out = wire.AppendUvarint(out, uint64(len(bankB)))
		out = append(out, bankB...)
	}
	return wire.AppendManifest(out, man)
}

// goldenBankSections pins the bytes every golden payload carries BEFORE its
// manifest section: the config header, the bank count and every bank's
// bytes. They were captured while the manifest still held CRC64 leaves and
// must survive any change to the manifest alone, which is what separates a
// digest change from an encoder change.
var goldenBankSections = map[string]string{
	"fixture/base":    "b290881581952245895a5eea357b7070c9e1a4682f9a5bfbaee1c33a5b9b7e89",
	"fixture/toggled": "07915a97161258551706a9f310a5135062e14a0eeca7ee4c27b9884502901ad6",
	"nil/base":        "f70840ae3944f939c97d6042aa2f465c50aa135abecb554980dca896ea70b571",
	"nil/toggled":     "8962ca31aa69ef4efe238a411b28f14560a0d6e8c3f594d28483139d5c670440",
	"subset/base":     "ff8065251cda557a4d4fcbc4086f00905315a9051ba893334d0daaa48ef8e730",
	"subset/toggled":  "6866b7db43001308c0ac6af8e898b10b76225511f5b81506e4729b1cc8a774c2",
	"empty/base":      "7d9860eba792be3ff21e872880f46743028938abf60aec25320d0dc33e38c08a",
	"empty/toggled":   "7d9860eba792be3ff21e872880f46743028938abf60aec25320d0dc33e38c08a",
}

func TestBankSectionsGolden(t *testing.T) {
	got := map[string]string{}
	section := func(b *Bundle, payload []byte) string {
		t.Helper()
		man, err := b.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		return sha(payload[:len(payload)-len(wire.EncodeManifest(man))])
	}
	cfg, base, toggles := publishFixture()
	b := NewBundle(cfg)
	for _, stage := range []struct {
		name string
		ups  []stream.Update
	}{{"base", base}, {"toggled", toggles}} {
		b.UpdateBatch(stage.ups)
		data, err := b.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		got["fixture/"+stage.name] = section(b, data)
	}
	small := testBundleConfig()
	smallBase, smallToggles := bundleStream(3).Updates, bundleStream(8).Updates[:256]
	for _, g := range goldenBanks {
		b := NewBundle(small)
		for _, stage := range []struct {
			name string
			ups  []stream.Update
		}{{"base", smallBase}, {"toggled", smallToggles}} {
			b.UpdateBatch(stage.ups)
			data, err := b.MarshalBanks(g.ids)
			if err != nil {
				t.Fatal(err)
			}
			got[g.name+"/"+stage.name] = section(b, data)
		}
	}
	if len(got) != len(goldenBankSections) {
		t.Fatalf("%d stages, want %d", len(got), len(goldenBankSections))
	}
	for k, v := range got {
		if want := goldenBankSections[k]; v != want {
			t.Errorf("%s: bank section sha %s, want %s", k, v, want)
		}
	}
}
