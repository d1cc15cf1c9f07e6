package service

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	rt "graphsketch/internal/runtime"
)

// rotSnapshot flips one byte of a tenant's on-disk snapshot past the
// header — the modeled bit-rot the scrubber's disk re-read must catch.
func rotSnapshot(t *testing.T, dir, tenant string) {
	t.Helper()
	path := rt.SnapshotPath(filepath.Join(dir, tenant))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	if len(data) < 64 {
		t.Fatalf("snapshot too small to rot: %d bytes", len(data))
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write rotted snapshot: %v", err)
	}
}

// TestScrubCleanRound: a healthy tenant scrubs clean on all three
// surfaces and the round counter moves.
func TestScrubCleanRound(t *testing.T) {
	n := newReplicaNode(t, "")
	st := bundleStream(41)
	feedNode(t, n, "acme", st.Updates)
	if _, err := n.c.Flush("acme"); err != nil {
		t.Fatalf("flush: %v", err)
	}
	sc := NewScrubber(n.srv, ScrubConfig{Every: time.Hour})
	round := sc.RunOnce(context.Background())
	if round.Tenants != 1 || round.Clean != 1 || round.Quarantined != 0 {
		t.Fatalf("round = %+v, want 1 clean tenant", round)
	}
	if got := n.srv.met.ScrubRounds.Load(); got != 1 {
		t.Fatalf("ScrubRounds = %d, want 1", got)
	}
}

// TestScrubRepairsDiskRot: rot on disk with a clean live state is
// detected and repaired locally by rewriting the snapshot from the live
// bundle; the served payload never changes.
func TestScrubRepairsDiskRot(t *testing.T) {
	dir := t.TempDir()
	n := newReplicaNode(t, dir)
	st := bundleStream(42)
	feedNode(t, n, "acme", st.Updates)
	if _, err := n.c.Flush("acme"); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want, wantPos, _, err := n.c.PayloadAt("acme")
	if err != nil {
		t.Fatalf("payload: %v", err)
	}

	rotSnapshot(t, dir, "acme")
	rep, err := n.srv.ScrubTenant(context.Background(), "acme")
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.DiskOK || !rep.LiveOK || rep.Repaired != "snapshot" || rep.Quarantined {
		t.Fatalf("report = %+v, want disk rot repaired via snapshot", rep)
	}
	if rep, _ = n.srv.ScrubTenant(context.Background(), "acme"); !rep.Clean() {
		t.Fatalf("post-repair scrub = %+v, want clean", rep)
	}
	got, gotPos, _, err := n.c.PayloadAt("acme")
	if err != nil || gotPos != wantPos || !bytes.Equal(got, want) {
		t.Fatalf("payload changed across disk repair: pos %d vs %d, err=%v", gotPos, wantPos, err)
	}
}

// TestScrubRepairsLiveRot: a rotted in-memory bank with a clean WAL is
// detected by the digest tree and rebuilt bit-identically by
// deterministic replay from the WAL mirror.
func TestScrubRepairsLiveRot(t *testing.T) {
	n := newReplicaNode(t, "")
	st := bundleStream(43)
	feedNode(t, n, "acme", st.Updates)
	if _, err := n.c.Flush("acme"); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want, wantPos, _, err := n.c.PayloadAt("acme")
	if err != nil {
		t.Fatalf("payload: %v", err)
	}

	if err := n.srv.InjectBankRot(context.Background(), "acme", 2, 43); err != nil {
		t.Fatalf("inject rot: %v", err)
	}
	rep, err := n.srv.ScrubTenant(context.Background(), "acme")
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.LiveOK || !rep.DiskOK || rep.Repaired != "recover" || rep.Quarantined {
		t.Fatalf("report = %+v, want live rot repaired via recover", rep)
	}
	got, gotPos, _, err := n.c.PayloadAt("acme")
	if err != nil || gotPos != wantPos || !bytes.Equal(got, want) {
		t.Fatalf("live repair not bit-identical: pos %d vs %d, err=%v", gotPos, wantPos, err)
	}
}

// TestScrubDetectsRotInUnpublishedBank: rot in a bank that a batch has
// written since the last epoch publish is still caught. Every leaf is
// maintained by the writes themselves, so the scrub has no "not yet
// published" bank to skip.
func TestScrubDetectsRotInUnpublishedBank(t *testing.T) {
	n := newReplicaNode(t, "")
	ups := bundleStream(46).Updates[:testConfig(t).EpochEvery/2]
	feedNode(t, n, "acme", ups)
	// The expected bytes come from a local replay: reading the tenant's
	// payload here would be one more touch of the banks before the rot.
	ref := NewBundle(testBundleConfig())
	ref.UpdateBatch(ups)
	want, err := ref.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.srv.InjectBankRot(context.Background(), "acme", 0, 46); err != nil {
		t.Fatalf("inject rot: %v", err)
	}
	rep, err := n.srv.ScrubTenant(context.Background(), "acme")
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.LiveOK || !rep.DiskOK || rep.Repaired != "recover" || rep.Quarantined {
		t.Fatalf("report = %+v, want rot in the unpublished bank repaired via recover", rep)
	}
	sealed, gotPos, _, err := n.c.PayloadAt("acme")
	if err != nil {
		t.Fatalf("payload: %v", err)
	}
	if got, err := DecodeSealed(sealed); err != nil || gotPos != len(ups) || !bytes.Equal(got, want) {
		t.Fatalf("live repair not bit-identical: pos %d vs %d, err=%v", gotPos, len(ups), err)
	}
}

// TestQuarantineLifecycle is the end-to-end fence: rot on BOTH repair
// surfaces quarantines the tenant (503 on queries and ingest, position
// still served), a peer repair through the syncer restores byte-identical
// state, and the fence lifts.
func TestQuarantineLifecycle(t *testing.T) {
	primary := newReplicaNode(t, "")
	vdir := t.TempDir()
	victim := newReplicaNode(t, vdir)
	st := bundleStream(44)
	feedNode(t, primary, "acme", st.Updates)

	y := NewSyncer(victim.srv, SyncConfig{Peers: []string{primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})
	if round := y.RunOnce(context.Background()); round.Applied != 1 {
		t.Fatalf("converge round = %+v", round)
	}
	want, wantPos, _, err := primary.c.PayloadAt("acme")
	if err != nil {
		t.Fatalf("primary payload: %v", err)
	}

	// Rot both surfaces: nothing local is trustworthy, so the scrubber
	// must fence rather than repair.
	if err := victim.srv.InjectBankRot(context.Background(), "acme", 2, 44); err != nil {
		t.Fatalf("inject rot: %v", err)
	}
	rotSnapshot(t, vdir, "acme")
	sc := NewScrubber(victim.srv, ScrubConfig{Every: time.Hour})
	round := sc.RunOnce(context.Background())
	if round.Quarantined != 1 {
		t.Fatalf("scrub round = %+v, want 1 quarantined", round)
	}
	if q, reason := victim.srv.TenantQuarantined("acme"); !q || reason == "" {
		t.Fatalf("quarantined=%v reason=%q, want fenced with a cause", q, reason)
	}
	if victim.srv.met.ScrubFailed.Load() == 0 {
		t.Fatal("ScrubFailed counter did not move")
	}

	// Fenced: queries and ingest refuse, the payload endpoint refuses, but
	// /position still answers with the preserved position and the flag.
	if _, err := victim.c.MinCut("acme"); err == nil {
		t.Fatal("query served while quarantined")
	}
	if _, err := victim.c.Ingest("acme", -1, st.Updates[:1]); err == nil {
		t.Fatal("ingest accepted while quarantined")
	}
	if _, err := victim.c.Payload("acme"); err == nil {
		t.Fatal("payload served while quarantined")
	}
	pi, err := victim.c.PositionEx("acme")
	if err != nil {
		t.Fatalf("position while quarantined: %v", err)
	}
	if !pi.Quarantined || pi.Acked != len(st.Updates) {
		t.Fatalf("position row = %+v, want quarantined at pos %d", pi, len(st.Updates))
	}

	// Peer repair through the normal anti-entropy loop: pull only what
	// diverged, verify against the peer's root, lift the fence.
	round2 := y.RunOnce(context.Background())
	if round2.Repaired != 1 {
		t.Fatalf("repair round = %+v, want 1 repaired", round2)
	}
	if q, _ := victim.srv.TenantQuarantined("acme"); q {
		t.Fatal("still quarantined after peer repair")
	}
	if victim.srv.met.QuarantineRepairs.Load() != 1 {
		t.Fatalf("QuarantineRepairs = %d, want 1", victim.srv.met.QuarantineRepairs.Load())
	}
	got, gotPos, _, err := victim.c.PayloadAt("acme")
	if err != nil || gotPos != wantPos || !bytes.Equal(got, want) {
		t.Fatalf("repair not bit-identical: pos %d vs %d, err=%v", gotPos, wantPos, err)
	}
	if rep, _ := victim.srv.ScrubTenant(context.Background(), "acme"); !rep.Clean() {
		t.Fatalf("post-repair scrub = %+v, want clean", rep)
	}
	if _, err := victim.c.MinCut("acme"); err != nil {
		t.Fatalf("query after repair: %v", err)
	}
}

// TestSyncDigestReject: a sync install whose payload contradicts its own
// manifest, or whose manifest contradicts the peer-advertised root, is
// refused before anything touches local state.
func TestSyncDigestReject(t *testing.T) {
	primary := newReplicaNode(t, "")
	victim := newReplicaNode(t, "")
	st := bundleStream(45)
	feedNode(t, primary, "acme", st.Updates)
	sealed, pos, epoch, root, err := primary.c.PayloadBanksAt("acme", nil)
	if err != nil {
		t.Fatalf("payload: %v", err)
	}

	payload, err := DecodeSealed(sealed)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Clone(payload)
	tampered[len(tampered)/3] ^= 0x40
	ctx := context.Background()
	if _, err := victim.srv.SyncApply(ctx, "acme", pos, epoch, root, SealPayload(tampered)); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("tampered payload err = %v, want ErrDigestMismatch", err)
	}
	if _, err := victim.srv.SyncApply(ctx, "acme", pos, epoch, root^0xdeadbeef, sealed); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("lying root err = %v, want ErrDigestMismatch", err)
	}
	if got := victim.srv.met.SyncDigestReject.Load(); got != 2 {
		t.Fatalf("SyncDigestReject = %d, want 2", got)
	}
	if p, err := victim.c.Position("acme"); err != nil || p != 0 {
		t.Fatalf("position moved on rejected installs: %d err=%v", p, err)
	}

	// The honest install still lands.
	if _, err := victim.srv.SyncApply(ctx, "acme", pos, epoch, root, sealed); err != nil {
		t.Fatalf("honest install: %v", err)
	}
	got, gotPos, _, err := victim.c.PayloadAt("acme")
	if err != nil || gotPos != pos {
		t.Fatalf("post-install payload: pos=%d err=%v", gotPos, err)
	}
	want, _ := DecodeSealed(sealed)
	if gotP, _ := DecodeSealed(got); !bytes.Equal(gotP, want) {
		t.Fatal("honest install diverged")
	}
}

// TestDeltaSync: a follower that shares most banks with the peer pulls
// only the diverged ones — the transfer shrinks while convergence stays
// bit-identical.
func TestDeltaSync(t *testing.T) {
	cfg := testConfig(t)
	cfg.EpochEvery = 1 // publish every batch so /position's manifest is current
	mk := func() *replicaNode {
		c := cfg
		c.Dir = t.TempDir()
		s, err := NewServer(c)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		t.Cleanup(s.Kill)
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(hs.Close)
		return &replicaNode{srv: s, hs: hs, c: &Client{Base: hs.URL, HC: hs.Client(), JitterSeed: 7, Timeout: 2 * time.Minute}}
	}
	primary, follower := mk(), mk()
	st := bundleStream(46)
	prefix := len(st.Updates) - 5
	feedNode(t, primary, "acme", st.Updates[:prefix])

	y := NewSyncer(follower.srv, SyncConfig{Peers: []string{primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})
	if round := y.RunOnce(context.Background()); round.Applied != 1 {
		t.Fatalf("converge round = %+v", round)
	}

	// A 5-update suffix touches a strict subset of the banks.
	if pos, err := primary.c.Ingest("acme", prefix, st.Updates[prefix:]); err != nil || pos != len(st.Updates) {
		t.Fatalf("suffix feed: pos=%d err=%v", pos, err)
	}
	round := y.RunOnce(context.Background())
	if round.Applied != 1 || round.Deltas != 1 {
		t.Fatalf("delta round = %+v, want 1 delta apply", round)
	}
	deltaB := follower.srv.met.SyncDeltaBytes.Load()
	fullB := follower.srv.met.SyncDeltaFullBytes.Load()
	if deltaB == 0 || fullB == 0 || deltaB >= fullB {
		t.Fatalf("delta bytes %d vs full %d, want a real shrink", deltaB, fullB)
	}

	want, wantPos, _, err := primary.c.PayloadAt("acme")
	if err != nil {
		t.Fatalf("primary payload: %v", err)
	}
	got, gotPos, _, err := follower.c.PayloadAt("acme")
	if err != nil || gotPos != wantPos || !bytes.Equal(got, want) {
		t.Fatalf("delta convergence diverged: pos %d vs %d, err=%v", gotPos, wantPos, err)
	}
}

// TestSyncPeerBackoff pins the per-peer round backoff: a failing peer is
// retried on an exponentially widening, seeded-jitter schedule instead of
// eating a timeout every round, and the ledger shows up in PeerStatus.
func TestSyncPeerBackoff(t *testing.T) {
	n := newReplicaNode(t, "")
	if _, err := n.srv.Tenant("acme", true); err != nil {
		t.Fatal(err)
	}
	y := NewSyncer(n.srv, SyncConfig{Peers: []string{deadEndpoint(t)}, Timeout: 2 * time.Second, JitterSeed: 7})

	y.RunOnce(context.Background()) // round 1: probe fails, ledger opens
	ps := y.PeerStatus()
	if len(ps) != 1 || ps[0].Failures != 1 {
		t.Fatalf("status after failure = %+v, want 1 failure", ps)
	}
	// failures=1 → delay 2 rounds + jitter in [0,1]: round 2 is always
	// inside the backoff window.
	if ps[0].NextEligibleRound < 3 || ps[0].NextEligibleRound > 4 {
		t.Fatalf("next eligible round = %d, want 3 or 4", ps[0].NextEligibleRound)
	}
	if round := y.RunOnce(context.Background()); round.Probed != 0 || round.Failed != 0 {
		t.Fatalf("round 2 = %+v, want fully skipped by backoff", round)
	}
	ps = y.PeerStatus()
	if ps[0].SkippedRounds != 1 || ps[0].Failures != 1 {
		t.Fatalf("status after skipped round = %+v", ps)
	}
	// Drive to the eligible round: the retry fails again and the window
	// doubles (failures=2 → delay 4).
	for i := int64(3); i <= ps[0].NextEligibleRound; i++ {
		y.RunOnce(context.Background())
	}
	ps = y.PeerStatus()
	if ps[0].Failures != 2 {
		t.Fatalf("failures after second attempt = %+v, want 2", ps)
	}
	// The ledger reaches /metricz through the server.
	met, err := n.c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if len(met.SyncPeers) != 1 || met.SyncPeers[0].Failures != 2 {
		t.Fatalf("metricz sync peers = %+v, want the backoff ledger", met.SyncPeers)
	}
}

// TestCorruptAtOpenSidelines: a snapshot rotted while the server was down
// cannot load — the directory is sidelined, the tenant comes up empty and
// quarantined, and a peer repair restores it.
func TestCorruptAtOpenSidelines(t *testing.T) {
	primary := newReplicaNode(t, "")
	st := bundleStream(47)
	feedNode(t, primary, "acme", st.Updates)

	vdir := t.TempDir()
	victim := newReplicaNode(t, vdir)
	y := NewSyncer(victim.srv, SyncConfig{Peers: []string{primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})
	if round := y.RunOnce(context.Background()); round.Applied != 1 {
		t.Fatalf("converge round = %+v", round)
	}
	victim.srv.Kill()
	victim.hs.Close()
	rotSnapshot(t, vdir, "acme")

	reborn := newReplicaNode(t, vdir)
	if q, reason := reborn.srv.TenantQuarantined("acme"); !q || reason == "" {
		t.Fatalf("quarantined=%v reason=%q, want sidelined and fenced", q, reason)
	}
	if reborn.srv.met.CorruptSidelined.Load() != 1 {
		t.Fatalf("CorruptSidelined = %d, want 1", reborn.srv.met.CorruptSidelined.Load())
	}
	if _, err := os.Stat(filepath.Join(vdir, "acme.corrupt")); err != nil {
		t.Fatalf("sidelined directory missing: %v", err)
	}

	y2 := NewSyncer(reborn.srv, SyncConfig{Peers: []string{primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})
	if round := y2.RunOnce(context.Background()); round.Repaired != 1 {
		t.Fatalf("repair round = %+v, want 1 repaired", round)
	}
	want, wantPos, _, err := primary.c.PayloadAt("acme")
	if err != nil {
		t.Fatalf("primary payload: %v", err)
	}
	got, gotPos, _, err := reborn.c.PayloadAt("acme")
	if err != nil || gotPos != wantPos || !bytes.Equal(got, want) {
		t.Fatalf("sideline repair diverged: pos %d vs %d, err=%v", gotPos, wantPos, err)
	}
}
