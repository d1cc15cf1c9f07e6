package service

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"

	"graphsketch"
)

// TestEpochUnmovedByWriter: a published epoch shares its arenas with the
// live state copy-on-write, so every way the writer moves the live state —
// ingest, merge, bank install, full install, injected rot — must leave a
// held epoch's bytes, manifest root and digests as they were, while cold
// queries read it concurrently.
func TestEpochUnmovedByWriter(t *testing.T) {
	ctx := context.Background()
	newServer := func() *Server {
		cfg := testConfig(t)
		cfg.EpochEvery = 20
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Kill)
		return s
	}
	s, peer := newServer(), newServer()
	ups := bundleStream(23).Updates
	ingest := func(srv *Server, from, to int) {
		t.Helper()
		if pos, err := srv.Ingest(ctx, "t", from, ups[from:to]); err != nil || pos != to {
			t.Fatalf("ingest [%d,%d): pos %d err %v", from, to, pos, err)
		}
	}
	ingest(s, 0, 200)
	tn, err := s.Tenant("t", false)
	if err != nil {
		t.Fatal(err)
	}
	// Every step holds the epoch it starts from; after every step each held
	// epoch must still marshal to its bytes, verify its digests, and answer
	// its first queries.
	type held struct {
		ep    *Epoch
		bytes []byte
		root  uint64
		cut   graphsketch.MinCutResult
	}
	var mu sync.Mutex
	var epochs []*held
	marshal := func(ep *Epoch) ([]byte, uint64) {
		t.Helper()
		ep.mu.Lock()
		defer ep.mu.Unlock()
		data, err := ep.Bundle.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Bundle.VerifyDigests(); err != nil {
			t.Fatal(err)
		}
		return data, ep.Bundle.manifest().Root()
	}
	hold := func() {
		t.Helper()
		ep := tn.Snapshot()
		h := &held{ep: ep}
		h.bytes, h.root = marshal(ep)
		if h.root != ep.Manifest.Root() {
			t.Fatalf("epoch root %016x, published %016x", h.root, ep.Manifest.Root())
		}
		var err error
		if h.cut, err = ep.MinCut(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		epochs = append(epochs, h)
		mu.Unlock()
	}
	hold()
	if epochs[0].ep.Pos != 200 {
		t.Fatalf("epoch at %d, want 200", epochs[0].ep.Pos)
	}

	// Cold queries: drop the decode caches each time, so every query reads
	// a held epoch's cells while the writer moves the live state.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			h := epochs[i%len(epochs)]
			mu.Unlock()
			h.ep.mu.Lock()
			h.ep.Bundle.sp.Invalidate()
			h.ep.mu.Unlock()
			if got, err := h.ep.MinCut(); err != nil || got != h.cut {
				t.Errorf("cold min cut at %d: %+v (err %v), first %+v", h.ep.Pos, got, err, h.cut)
				return
			}
			if _, err := h.ep.Sparsify(); err != nil {
				t.Errorf("cold sparsifier at %d: %v", h.ep.Pos, err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	unmoved := func(step string) {
		t.Helper()
		mu.Lock()
		hs := slices.Clone(epochs)
		mu.Unlock()
		for _, h := range hs {
			if got, root := marshal(h.ep); !bytes.Equal(got, h.bytes) || root != h.root {
				t.Fatalf("%s moved the epoch at %d: root %016x -> %016x, bytes changed %v", step, h.ep.Pos, h.root, root, !bytes.Equal(got, h.bytes))
			}
		}
		hold()
	}
	ingest(s, 200, 260)
	unmoved("ingest")

	// The peer runs a few updates ahead: its changed banks install onto
	// the live state, the rest stay shared.
	ingest(peer, 0, 265)
	install := func(step string, ids []int) {
		t.Helper()
		sealed, pos, epoch, root, err := peer.PayloadBanks(ctx, "t", ids)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SyncApply(ctx, "t", pos, epoch, root, sealed); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		unmoved(step)
	}
	local, _, err := s.ManifestNow(ctx, "t", false)
	if err != nil {
		t.Fatal(err)
	}
	remote, _, err := peer.ManifestNow(ctx, "t", false)
	if err != nil {
		t.Fatal(err)
	}
	diverged := local.Diff(remote)
	if len(diverged) == 0 || len(diverged) == len(local.Banks) {
		t.Fatalf("%d of %d banks diverged, want a proper subset", len(diverged), len(local.Banks))
	}
	deltas := s.met.SyncDeltaPulls.Load()
	install("bank install", diverged)
	if s.met.SyncDeltaPulls.Load() != deltas+1 {
		t.Fatal("the bank install was not a delta pull")
	}
	ingest(peer, 265, 330)
	install("full install", nil)

	other := NewBundle(testBundleConfig())
	other.UpdateBatch(bundleStream(24).Updates)
	payload, err := other.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge(ctx, "t", SealPayload(payload)); err != nil {
		t.Fatal(err)
	}
	unmoved("merge")

	for _, bank := range []int{0, other.NumBanks() - 1} {
		if err := s.InjectBankRot(ctx, "t", bank, 5); err != nil {
			t.Fatal(err)
		}
	}
	unmoved("rot")
}

// TestFullInstallMatchesFreshMerge: a full payload replace-installed on a
// clone of the live state (assemble) must equal the payload merged into a
// new bundle, in bytes, root and digests, whatever the live state held:
// a prefix of the payload's stream, a stream of its own, or rot behind its
// maintained digests (a fenced tenant, whose leaves assemble rebuilds).
func TestFullInstallMatchesFreshMerge(t *testing.T) {
	cfg := testBundleConfig()
	ups := bundleStream(3).Updates
	peer := NewBundle(cfg)
	peer.UpdateBatch(ups)
	payload, err := peer.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewBundle(cfg)
	if err := fresh.MergeBytes(payload); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	wantRoot := fresh.manifest().Root()

	healthy := NewBundle(cfg)
	healthy.UpdateBatch(ups[:100])
	diverged := NewBundle(cfg)
	diverged.UpdateBatch(bundleStream(5).Updates)
	rotted := healthy.Clone()
	for _, bank := range []int{2, rotted.NumBanks() - 1} {
		if err := rotted.InjectBankRot(bank, 9); err != nil {
			t.Fatal(err)
		}
	}
	if rotted.VerifyDigests() == nil {
		t.Fatal("the rot fixture verifies clean")
	}
	for _, tc := range []struct {
		name   string
		live   *Bundle
		fenced bool
	}{{"healthy", healthy, false}, {"diverged", diverged, false}, {"rotted", rotted, true}} {
		before, err := tc.live.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		next, full, err := tc.live.assemble(payload, tc.fenced)
		if err != nil || !full {
			t.Fatalf("%s: full %v, err %v", tc.name, full, err)
		}
		got, err := next.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || next.manifest().Root() != wantRoot || next.ResidentBytes() != fresh.ResidentBytes() {
			t.Fatalf("%s: the install differs from a fresh merge of the payload", tc.name)
		}
		if err := next.VerifyDigests(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if after, _ := tc.live.MarshalBinaryCompact(); !bytes.Equal(after, before) {
			t.Fatalf("%s: the install moved the live state", tc.name)
		}
	}
}
