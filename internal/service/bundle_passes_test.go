package service

import (
	"bytes"
	"errors"
	"fmt"
	"regexp"
	goruntime "runtime"
	"testing"

	"graphsketch/internal/wire"
)

// TestBundlePassesBitIdentical runs every whole-state pass of the bundle
// (UpdateBatch, Clone, MarshalBanks, MergeBytes, InstallBanks,
// VerifyDigests, RecomputeDigests) at GOMAXPROCS 1, 2 and 4 and requires
// the same bytes, manifest roots and errors at every count. The passes fan
// out one owner per level, bank or arena, so the processor count must not
// show in anything they produce — including which bank a failed fold
// reports and what a failed fold leaves behind.
func TestBundlePassesBitIdentical(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	var ref map[string]string
	for _, procs := range []int{1, 2, 4} {
		goruntime.GOMAXPROCS(procs)
		got := bundlePasses(t)
		if ref == nil {
			ref = got
			continue
		}
		for k, want := range ref {
			if got[k] != want {
				t.Errorf("GOMAXPROCS=%d: %s = %s, at GOMAXPROCS=1 %s", procs, k, got[k], want)
			}
		}
	}
}

// bundlePasses records what each pass produces: a state's full payload
// hash and manifest root, an encoding's hash, or an error's text.
func bundlePasses(t *testing.T) map[string]string {
	t.Helper()
	cfg := testBundleConfig()
	out := map[string]string{}
	state := func(name string, b *Bundle) {
		t.Helper()
		data, err := b.MarshalBinaryCompact()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		out[name] = fmt.Sprintf("%s/%016x", sha(data), b.manifest().Root())
	}
	encoding := func(name string, b *Bundle, ids []int) []byte {
		t.Helper()
		data, err := b.MarshalBanks(ids)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = sha(data)
		return data
	}
	failure := func(name string, err error, bank int) {
		t.Helper()
		if !errors.Is(err, ErrDigestMismatch) || !regexp.MustCompile(fmt.Sprintf(`\bbank %d\b`, bank)).MatchString(err.Error()) {
			t.Fatalf("%s: error %v, want a digest mismatch naming bank %d", name, err, bank)
		}
		out[name] = err.Error()
	}

	live := NewBundle(cfg)
	for _, seed := range []uint64{3, 4} {
		ups := bundleStream(seed).Updates
		for len(ups) > 0 {
			n := min(64, len(ups))
			live.UpdateBatch(ups[:n])
			ups = ups[n:]
		}
	}
	state("batches", live)
	state("clone", live.Clone())
	full := encoding("marshal/nil", live, nil)
	encoding("marshal/subset", live, []int{0, 3, 5, 8, 9, 11, 16})

	fresh := NewBundle(cfg)
	if err := fresh.MergeBytes(full); err != nil {
		t.Fatalf("merge into a pristine bundle: %v", err)
	}
	state("merge/pristine", fresh)
	other := NewBundle(cfg)
	other.UpdateBatch(bundleStream(9).Updates)
	if err := other.MergeBytes(full); err != nil {
		t.Fatalf("merge into a live bundle: %v", err)
	}
	state("merge/live", other)

	// A peer one batch ahead: installing the banks it changed onto a copy
	// of live reproduces it.
	peer := live.Clone()
	peer.UpdateBatch(bundleStream(11).Updates[:40])
	var diff []int
	for id, leaf := range peer.manifest().Banks {
		if leaf != live.manifest().Banks[id] {
			diff = append(diff, id)
		}
	}
	delta := encoding("marshal/diff", peer, diff)
	target := live.Clone()
	if err := target.InstallBanks(delta); err != nil {
		t.Fatalf("install: %v", err)
	}
	state("install", target)
	if err := target.VerifyDigests(); err != nil {
		t.Fatalf("verify after install: %v", err)
	}
	target.RecomputeDigests()
	state("recompute", target)

	// Corrupt two adjacent sketch banks, the lower one in its last byte and
	// the higher one in its first, so that the higher one fails first when
	// they fold side by side: every fold must still report the lower one,
	// and leave its target as a failed fold always has.
	empty, _ := NewBundle(cfg).MarshalBinaryCompact()
	liveBytes, _ := live.MarshalBinaryCompact()
	bad := flipBankBytes(t, live, nil, 4, 5)
	fresh = NewBundle(cfg)
	failure("merge/pristine/corrupt", fresh.MergeBytes(bad), 4)
	if got, _ := fresh.MarshalBinaryCompact(); !bytes.Equal(got, empty) {
		t.Fatal("failed merge left a pristine bundle non-empty")
	}
	target = live.Clone()
	failure("merge/live/corrupt", target.MergeBytes(bad), 4)
	if got, _ := target.MarshalBinaryCompact(); !bytes.Equal(got, liveBytes) {
		t.Fatal("failed merge moved a live bundle")
	}
	badDelta := flipBankBytes(t, peer, diff, diff[1], diff[2])
	target = live.Clone()
	failure("install/corrupt", target.InstallBanks(badDelta), diff[1])
	if got, _ := target.MarshalBinaryCompact(); !bytes.Equal(got, liveBytes) {
		t.Fatal("failed install moved the bundle")
	}

	// Rot in two banks: the scrub check names the lower one.
	rotted := live.Clone()
	for _, bank := range []int{13, 5} {
		if err := rotted.InjectBankRot(bank, 99); err != nil {
			t.Fatal(err)
		}
	}
	failure("verify/rot", rotted.VerifyDigests(), 5)
	rotted.RecomputeDigests()
	state("recompute/rot", rotted)
	return out
}

// flipBankBytes returns src.MarshalBanks(ids) under src's honest manifest,
// with a bit flipped in the last byte of bank late, which its fold reads
// last, and in the first byte of bank early, which its fold reads first.
func flipBankBytes(t *testing.T, src *Bundle, ids []int, late, early int) []byte {
	t.Helper()
	if ids == nil {
		for id := 0; id < src.NumBanks(); id++ {
			ids = append(ids, id)
		}
	}
	out := src.appendConfigHeader(nil)
	out = wire.AppendUvarint(out, uint64(src.NumBanks()))
	out = wire.AppendUvarint(out, uint64(len(ids)))
	for _, id := range ids {
		bankB, err := src.appendBank(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		switch id {
		case late:
			bankB[len(bankB)-1] ^= 0x40
		case early:
			bankB[0] ^= 0x40
		}
		out = wire.AppendUvarint(out, uint64(id))
		out = wire.AppendUvarint(out, uint64(len(bankB)))
		out = append(out, bankB...)
	}
	return wire.AppendManifest(out, src.manifest())
}
