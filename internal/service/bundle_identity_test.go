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
// manifest's leaves became linear digests (GSD2), and again when the bundle
// dropped its separate min-cut stack (payload layout v3: the header gained
// the layout, the min-cut banks and their leaves left);
// TestSurvivingBanksPinned proves every remaining bank's bytes are the ones
// pinned before.
const (
	goldenBaseSHA     = "d5eac05a13c332218fc2131836c43fd5faa027563bf765a265dff9a268544ba9"
	goldenBaseRoot    = uint64(0x84626ab96f63f4cf)
	goldenToggledSHA  = "597a1afabc27d373e34fdba4c4c348101bdc553082d8b4b0cab5096adf34dbca"
	goldenToggledRoot = uint64(0x11378bbe2b507cf8)
)

// goldenBanks pins MarshalBanks at the same point for each id-list shape,
// on the small test bundle (the race detector multiplies a default bundle's
// 81 MB): nil (every bank), a subset across both bank kinds with a
// duplicate, and the empty list (manifest only) — each with a first stream
// loaded and again after a second one dirties banks.
var goldenBanks = []struct {
	name          string
	ids           []int
	base, toggled string
}{
	{"nil", nil,
		"4a3108835abfd3fd0a4fb300fdeab79a14805ad9f9456a4271d9fb8764595d46",
		"3730df7883c2c7c0d8eec2c7de4f45d551a7f7f7c5cde567bd9a3e1f5d1f8af3"},
	{"subset", []int{0, 2, 2, 8, 9, 16},
		"1ad48f0b43b1e350b3bb16b6da3ad33aae8849de56a5149ba890e7686a947b20",
		"fb3008e75ff594cdb6ff9936fbca029dd949c552c1b6df212ca588d4a6d0c480"},
	{"empty", []int{},
		"6a1f491bde2105c3e210825014157b03a3fd4c9fbf2e4e53b681343ffe5fd2e0",
		"7337c6cf61d6ee4a41d52a7e3b708b712569f3da712fda20831486776d010e5e"},
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
	victim := src.sp.NumBanks() - 1
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
// bytes. They were captured while the manifest still held CRC64 leaves,
// re-pinned at payload layout v3, and must survive any change to the
// manifest alone, which is what separates a digest change from an encoder
// change.
var goldenBankSections = map[string]string{
	"fixture/base":    "e981e13327294e7e34c8a4abc16a9105116435bf62a516dc7743b67db84815e6",
	"fixture/toggled": "e6da53678fb62efe58bcdf44b868590236d6e6d8cff6af14273af3dcafc8fb4b",
	"nil/base":        "236d942f98ef7bbbb21745556d8c039c4852120525a4bdb112f6b202d604f902",
	"nil/toggled":     "e1fc7f606bd13c18329ad2539028082c2325ba7ab5a4c6e97cf6dfab646e84e3",
	"subset/base":     "2bb841419ce9b28520561aba0483ca20727804c7fb816482136775bdd5336161",
	"subset/toggled":  "a7118e88d8fd35516e0813ee9d73fc969a28bc5e4810bf26dcb52981897cde3a",
	"empty/base":      "638c06f2be527300c6480ca9423faac0a709016ac01e702edc1a1fd8ecaf54d4",
	"empty/toggled":   "638c06f2be527300c6480ca9423faac0a709016ac01e702edc1a1fd8ecaf54d4",
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
