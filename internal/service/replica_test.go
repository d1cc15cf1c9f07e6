package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"graphsketch/internal/stream"
)

// replicaNode is one in-process replica: a Server behind a real HTTP
// listener, so the syncer exercises the genuine wire path.
type replicaNode struct {
	srv *Server
	hs  *httptest.Server
	c   *Client
}

func newReplicaNode(t *testing.T, dir string) *replicaNode {
	t.Helper()
	cfg := testConfig(t)
	if dir != "" {
		cfg.Dir = dir
	}
	return startNode(t, cfg)
}

// startNode opens a server on cfg, recovers it and serves it over HTTP.
func startNode(t *testing.T, cfg Config) *replicaNode {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	// Release the writer goroutines with the test: they keep every live
	// bundle and epoch resident (Kill after Drain or Kill is a no-op).
	t.Cleanup(s.Kill)
	if err := s.Preload(); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	// Generous deadline: race-detector runs are 10-20x slower and a timed-out
	// retry of a POST that actually landed turns into a spurious 409.
	return &replicaNode{srv: s, hs: hs, c: &Client{Base: hs.URL, HC: hs.Client(), JitterSeed: 7, Timeout: 2 * time.Minute}}
}

func feedNode(t *testing.T, n *replicaNode, tenant string, ups []stream.Update) {
	t.Helper()
	pos, _, err := n.c.IngestStream(tenant, ups, 90)
	if err != nil || pos != len(ups) {
		t.Fatalf("feed: pos=%d err=%v", pos, err)
	}
}

// TestReplicaAntiEntropyConvergence is the core replication guarantee: a
// follower that missed EVERY pull converges to the primary's bit-identical
// payload in one anti-entropy round, the second round dedupes to a no-op,
// and the follower's reported position equals the primary's so a failover
// client re-feeds from the right point.
func TestReplicaAntiEntropyConvergence(t *testing.T) {
	primary := newReplicaNode(t, "")
	follower := newReplicaNode(t, "")
	st := bundleStream(31)
	feedNode(t, primary, "acme", st.Updates)

	want, wantPos, wantEpoch, err := primary.c.PayloadAt("acme")
	if err != nil {
		t.Fatalf("primary payload: %v", err)
	}
	if wantPos != len(st.Updates) || wantEpoch == 0 {
		t.Fatalf("primary pos=%d epoch=%d, want pos=%d epoch>0", wantPos, wantEpoch, len(st.Updates))
	}

	y := NewSyncer(follower.srv, SyncConfig{Peers: []string{primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})
	round := y.RunOnce(context.Background())
	if round.Failed != 0 || round.Applied != 1 || round.Pulled != 1 {
		t.Fatalf("round 1 = %+v, want 1 pull applied, 0 failed", round)
	}

	got, gotPos, gotEpoch, err := follower.c.PayloadAt("acme")
	if err != nil {
		t.Fatalf("follower payload: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("follower payload diverged: %d vs %d bytes", len(got), len(want))
	}
	if gotPos != wantPos {
		t.Fatalf("follower position %d, want primary's %d", gotPos, wantPos)
	}
	if gotEpoch == 0 {
		t.Fatal("follower serves epoch 0 after install")
	}

	// Round 2: positions are equal, nothing pulls, nothing applies.
	round = y.RunOnce(context.Background())
	if round.Pulled != 0 || round.Applied != 0 || round.Failed != 0 {
		t.Fatalf("round 2 = %+v, want pure probe (dedup)", round)
	}
	if met, _ := follower.c.Metrics(); met.SyncApplied != 1 || met.SyncRounds != 2 {
		t.Fatalf("metrics applied=%d rounds=%d, want 1 and 2", met.SyncApplied, met.SyncRounds)
	}
}

// TestReplicaSyncDurability: the installed payload is durable — reopening
// the follower's directory cold recovers the synced state bit-identically.
func TestReplicaSyncDurability(t *testing.T) {
	primary := newReplicaNode(t, "")
	fdir := t.TempDir()
	follower := newReplicaNode(t, fdir)
	st := bundleStream(32)
	feedNode(t, primary, "acme", st.Updates)

	y := NewSyncer(follower.srv, SyncConfig{Peers: []string{primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})
	if round := y.RunOnce(context.Background()); round.Applied != 1 {
		t.Fatalf("round = %+v, want 1 applied", round)
	}
	want, wantPos, _, err := follower.c.PayloadAt("acme")
	if err != nil {
		t.Fatal(err)
	}
	follower.srv.Drain(context.Background())
	follower.hs.Close()

	reborn := newReplicaNode(t, fdir)
	got, gotPos, _, err := reborn.c.PayloadAt("acme")
	if err != nil {
		t.Fatalf("recovered payload: %v", err)
	}
	if gotPos != wantPos || !bytes.Equal(got, want) {
		t.Fatalf("cold recovery diverged: pos %d vs %d, %d vs %d bytes", gotPos, wantPos, len(got), len(want))
	}
}

// TestReplicaMidStreamSync: the follower holds a strict prefix (it synced
// once, then the primary kept ingesting); the next round replace-installs
// the longer payload — positions move forward and bits match.
func TestReplicaMidStreamSync(t *testing.T) {
	primary := newReplicaNode(t, "")
	follower := newReplicaNode(t, "")
	st := bundleStream(33)
	half := len(st.Updates) / 2

	feedNode(t, primary, "acme", st.Updates[:half])
	y := NewSyncer(follower.srv, SyncConfig{Peers: []string{primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})
	if round := y.RunOnce(context.Background()); round.Applied != 1 {
		t.Fatalf("half-sync round = %+v", round)
	}

	// Primary advances; follower now lags and must report it on probe.
	if pos, err := primary.c.Ingest("acme", half, st.Updates[half:]); err != nil || pos != len(st.Updates) {
		t.Fatalf("second feed: pos=%d err=%v", pos, err)
	}
	y2 := NewSyncer(follower.srv, SyncConfig{Peers: []string{primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})
	if round := y2.RunOnce(context.Background()); round.Applied != 1 {
		t.Fatalf("catch-up round = %+v", round)
	}

	want, wantPos, _, _ := primary.c.PayloadAt("acme")
	got, gotPos, _, err := follower.c.PayloadAt("acme")
	if err != nil || gotPos != wantPos || !bytes.Equal(got, want) {
		t.Fatalf("catch-up diverged: pos %d vs %d, err=%v", gotPos, wantPos, err)
	}
}

// TestReplicaLagReported: a follower that is behind reports the peer's
// position and its own deficit in the footprint row BEFORE it catches up,
// and zeros the lag after the install.
func TestReplicaLagReported(t *testing.T) {
	primary := newReplicaNode(t, "")
	follower := newReplicaNode(t, "")
	st := bundleStream(34)
	feedNode(t, primary, "acme", st.Updates)

	// Probe-only round: block the pull by giving the syncer a peer list
	// where the payload fetch fails — simplest is to sync once against a
	// peer that answers position but whose payload we never fetch. Instead,
	// drive the probe path directly: one RunOnce with the real peer, then
	// inspect footprint AFTER the apply (lag zeroed), plus a manual probe
	// before. The pre-install lag is asserted via the tenant mirrors.
	lt, err := follower.srv.Tenant("acme", true)
	if err != nil {
		t.Fatal(err)
	}
	y := NewSyncer(follower.srv, SyncConfig{Peers: []string{primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})

	// Hand-run the probe half: peer position lands in the mirrors.
	pi, err := y.peers[0].client.PositionEx("acme")
	if err != nil {
		t.Fatal(err)
	}
	lt.replPeerPos.Store(int64(pi.Acked))
	fp, err := follower.c.Footprint("acme")
	if err != nil {
		t.Fatal(err)
	}
	if fp.ReplPeerPos != len(st.Updates) || fp.ReplUpdatesBehind != len(st.Updates) {
		t.Fatalf("pre-sync lag: peer_pos=%d behind=%d, want both %d", fp.ReplPeerPos, fp.ReplUpdatesBehind, len(st.Updates))
	}

	if round := y.RunOnce(context.Background()); round.Applied != 1 {
		t.Fatalf("round = %+v", round)
	}
	fp, err = follower.c.Footprint("acme")
	if err != nil {
		t.Fatal(err)
	}
	if fp.ReplUpdatesBehind != 0 || fp.ReplEpochsBehind != 0 || fp.ReplBytesPending != 0 {
		t.Fatalf("post-sync lag not zeroed: %+v", fp)
	}
	if fp.ReplSyncEpoch == 0 {
		t.Fatal("post-sync footprint should stamp the applied epoch")
	}
}

// TestReplicaPartitionedPeer: a dead peer costs one Failed probe per
// tenant per round and never wedges the loop; after the peer "heals"
// (a live server appears), the next round converges as usual.
func TestReplicaPartitionedPeer(t *testing.T) {
	follower := newReplicaNode(t, "")
	if _, err := follower.srv.Tenant("acme", true); err != nil {
		t.Fatal(err)
	}
	dead := deadEndpoint(t)
	y := NewSyncer(follower.srv, SyncConfig{Peers: []string{dead}, Timeout: time.Minute, JitterSeed: 7})
	round := y.RunOnce(context.Background())
	if round.Failed != 1 || round.Pulled != 0 {
		t.Fatalf("partitioned round = %+v, want exactly 1 failed probe", round)
	}

	primary := newReplicaNode(t, "")
	st := bundleStream(35)
	feedNode(t, primary, "acme", st.Updates)
	healed := NewSyncer(follower.srv, SyncConfig{Peers: []string{dead, primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})
	round = healed.RunOnce(context.Background())
	if round.Applied != 1 {
		t.Fatalf("healed round = %+v, want 1 applied despite the dead peer", round)
	}
	want, _, _, _ := primary.c.PayloadAt("acme")
	got, _, _, err := follower.c.PayloadAt("acme")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("healed convergence failed: err=%v", err)
	}
}

// TestReplicaSyncRejectsCorruptPayload: a corrupt sync body must not
// disturb durable state and must count as a sync failure.
func TestReplicaSyncRejectsCorruptPayload(t *testing.T) {
	node := newReplicaNode(t, "")
	st := bundleStream(36)
	feedNode(t, node, "acme", st.Updates)
	want, wantPos, _, _ := node.c.PayloadAt("acme")

	junk := append([]byte(nil), want...)
	junk[len(junk)/2] ^= 0x40
	if _, err := node.c.Sync("acme", wantPos+1000, 99, junk); err == nil {
		t.Fatal("corrupt sync payload accepted")
	}
	got, gotPos, _, err := node.c.PayloadAt("acme")
	if err != nil || gotPos != wantPos || !bytes.Equal(got, want) {
		t.Fatalf("corrupt sync disturbed state: pos %d vs %d, err=%v", gotPos, wantPos, err)
	}
	if met, _ := node.c.Metrics(); met.SyncFailed == 0 {
		t.Fatal("corrupt sync not counted in sync_failed")
	}
}

// TestReplicaReadyz: /readyz is 503 until Preload has recovered on-disk
// tenants and 503 again once draining; /healthz stays 200 throughout the
// recovering window.
func TestReplicaReadyz(t *testing.T) {
	dir := t.TempDir()
	seeded := newReplicaNode(t, dir)
	st := bundleStream(37)
	feedNode(t, seeded, "acme", st.Updates)
	if _, err := seeded.c.Flush("acme"); err != nil {
		t.Fatal(err)
	}
	seeded.srv.Drain(context.Background())
	seeded.hs.Close()

	cfg := testConfig(t)
	cfg.Dir = dir
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Kill)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL, HC: hs.Client(), Attempts: 1, JitterSeed: 7}

	if err := c.Healthz(); err != nil {
		t.Fatalf("healthz before preload: %v", err)
	}
	if err := c.Readyz(); err == nil {
		t.Fatal("readyz should 503 before Preload")
	}
	if err := s.Preload(); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	if err := c.Readyz(); err != nil {
		t.Fatalf("readyz after preload: %v", err)
	}
	// Preload recovered the on-disk tenant: queries work with zero re-feed.
	fp, err := c.Footprint("acme")
	if err != nil || fp.Acked != len(st.Updates) {
		t.Fatalf("preloaded tenant: acked=%d err=%v, want %d", fp.Acked, err, len(st.Updates))
	}
	s.Drain(context.Background())
	if err := c.Readyz(); err == nil {
		t.Fatal("readyz should 503 while draining")
	}
}

// TestReplicaSpannerEdge: the membership query answers true for every
// edge the spanner retained (cross-checked against the full spanner row's
// count by sampling) and false for an absent pair, with query metadata
// served from the same epoch snapshot.
func TestReplicaSpannerEdge(t *testing.T) {
	node := newReplicaNode(t, "")
	st := bundleStream(38)
	feedNode(t, node, "acme", st.Updates)

	full, err := node.c.Spanner("acme")
	if err != nil {
		t.Fatalf("spanner: %v", err)
	}
	if full.Edges == 0 {
		t.Fatal("spanner kept no edges; test stream too sparse")
	}

	// Walk vertex pairs until we find a retained edge; every hit must agree
	// with the full row's stretch bound and edge count.
	n := node.srv.cfg.Bundle.N
	found := 0
	for u := 0; u < n && found == 0; u++ {
		for v := u + 1; v < n; v++ {
			resp, err := node.c.SpannerEdge("acme", u, v)
			if err != nil {
				t.Fatalf("spanner-edge(%d,%d): %v", u, v, err)
			}
			if resp.Edges != full.Edges || resp.StretchBound != full.StretchBound {
				t.Fatalf("edge row disagrees with full row: %+v vs %+v", resp, full)
			}
			if resp.InSpanner {
				found++
				break
			}
		}
	}
	if found == 0 {
		t.Fatal("no retained edge found via membership query")
	}
	// Self-loops are never retained.
	resp, err := node.c.SpannerEdge("acme", 0, 0)
	if err != nil {
		t.Fatalf("spanner-edge(0,0): %v", err)
	}
	if resp.InSpanner {
		t.Fatal("self-loop reported in spanner")
	}
	// Out-of-range vertices are a 400, not a panic.
	if _, err := node.c.SpannerEdge("acme", 0, n+100); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}
