package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphsketch/internal/runtime"
	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// newLogNode is newReplicaNode with its own snapshot and epoch intervals, so
// a test decides where a node's snapshots fall.
func newLogNode(t *testing.T, dir string, snapshotEvery, epochEvery int) *replicaNode {
	t.Helper()
	cfg := testConfig(t)
	if dir != "" {
		cfg.Dir = dir
	}
	cfg.SnapshotEvery, cfg.EpochEvery = snapshotEvery, epochEvery
	return startNode(t, cfg)
}

// ingestAt feeds ups to n at position at in batches of size batch.
func ingestAt(t *testing.T, n *replicaNode, at int, ups []stream.Update, batch int) int {
	t.Helper()
	for len(ups) > 0 {
		k := min(batch, len(ups))
		pos, err := n.c.Ingest("acme", at, ups[:k])
		if err != nil || pos != at+k {
			t.Fatalf("ingest at %d: pos %d err %v", at, pos, err)
		}
		at, ups = pos, ups[k:]
	}
	return at
}

// samePayload fails unless b holds a's payload at a's position.
func samePayload(t *testing.T, step string, a, b *replicaNode) {
	t.Helper()
	want, wantPos, _, err := a.c.PayloadAt("acme")
	if err != nil {
		t.Fatalf("%s: payload: %v", step, err)
	}
	got, gotPos, _, err := b.c.PayloadAt("acme")
	if err != nil || gotPos != wantPos || !bytes.Equal(got, want) {
		t.Fatalf("%s: replica at %d (err %v) does not hold the payload at %d", step, gotPos, err, wantPos)
	}
}

// TestReplicaLogPull: a follower one batch behind converges by pulling the
// log suffix, not state. The pull moves a few bytes per update, counts in
// the delta and log metrics, counts toward the follower's own snapshot and
// epoch intervals, and is durable across a restart.
func TestReplicaLogPull(t *testing.T) {
	primary := newLogNode(t, "", 1<<20, 100)
	fdir := t.TempDir()
	follower := newLogNode(t, fdir, 120, 50)
	st := bundleStream(38)
	half := len(st.Updates) / 2
	pos := ingestAt(t, primary, 0, st.Updates[:half], 90)

	y := NewSyncer(follower.srv, SyncConfig{Peers: []string{primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})
	ctx := context.Background()
	if round := y.RunOnce(ctx); round.Applied != 1 || round.Logs != 0 {
		t.Fatalf("first contact = %+v, want one full pull", round)
	}

	pos = ingestAt(t, primary, pos, st.Updates[half:half+150], 50)
	round := y.RunOnce(ctx)
	if round.Applied != 1 || round.Logs != 1 || round.Deltas != 1 || round.Pulled != 1 || round.Failed != 0 {
		t.Fatalf("log round = %+v, want one log pull applied", round)
	}
	if want := int64(len(EncodeUpdates(st.Updates[half : half+150]))); round.Bytes != want {
		t.Fatalf("log round moved %d bytes, want the %d-byte sealed suffix", round.Bytes, want)
	}
	samePayload(t, "log pull", primary, follower)
	met, err := follower.c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if met.SyncLogPulls != 1 || met.SyncDeltaPulls != 1 || met.SyncApplied != 2 || met.SyncDeltaBytes != round.Bytes {
		t.Fatalf("metrics after a log pull: %+v", met)
	}

	// 150 pulled updates crossed the follower's SnapshotEvery (120) and
	// EpochEvery (50): the log was folded into a snapshot and the pulled
	// position was published.
	ft, err := follower.srv.Tenant("acme", false)
	if err != nil {
		t.Fatal(err)
	}
	if ep := ft.Snapshot(); ep.Pos != pos {
		t.Fatalf("follower epoch at %d, want %d", ep.Pos, pos)
	}
	if _, logB, _, replay, err := follower.srv.WALStats(ctx, "acme"); err != nil || logB != 0 || replay != 0 {
		t.Fatalf("follower log after the pulled snapshot: %d bytes, %d updates (err %v)", logB, replay, err)
	}

	// One more, short of both intervals: the pulled updates live in the
	// follower's log, and a restart replays them.
	pos = ingestAt(t, primary, pos, st.Updates[half+150:half+180], 30)
	if round := y.RunOnce(ctx); round.Logs != 1 {
		t.Fatalf("second log round = %+v", round)
	}
	if _, _, _, replay, err := follower.srv.WALStats(ctx, "acme"); err != nil || replay != 30 {
		t.Fatalf("follower log holds %d updates (err %v), want the 30 pulled", replay, err)
	}
	follower.srv.Kill()
	follower.hs.Close()
	reborn := newLogNode(t, fdir, 120, 50)
	samePayload(t, "restart after log pulls", primary, reborn)
}

// flipLog re-seals every /log body with its last update's delta changed: the
// envelope checks out, the batch decodes, and only the root can tell.
type flipLog struct{ base http.RoundTripper }

func (f flipLog) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.base.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasSuffix(req.URL.Path, "/log") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	payload, _, err := wire.Open(body)
	if err != nil {
		return nil, err
	}
	payload = bytes.Clone(payload)
	// The last byte ends the last delta's varint; flipping bit 2 keeps it a
	// one-byte varint of another value.
	payload[len(payload)-1] ^= 0x04
	sealed := wire.Seal(payload)
	resp.Body = io.NopCloser(bytes.NewReader(sealed))
	resp.ContentLength = int64(len(sealed))
	resp.Header.Set("Content-Length", strconv.Itoa(len(sealed)))
	return resp, nil
}

// TestReplicaLogRejectsTamperedSuffix: a suffix altered in flight and
// re-sealed is applied in memory, found not to reproduce the served root,
// and undone. The follower's state bytes, WAL files and position are exactly
// as before the pull, sync_digest_reject counts it, and the same round still
// converges, through the bank rung.
func TestReplicaLogRejectsTamperedSuffix(t *testing.T) {
	// The primary publishes every batch, so the manifest /position
	// advertises is its live one and a bank pull can prove its root.
	primary := newLogNode(t, "", 1<<20, 1)
	fdir := t.TempDir()
	follower := newLogNode(t, fdir, 1<<20, 100)
	st := bundleStream(39)
	half := len(st.Updates) / 2
	pos := ingestAt(t, primary, 0, st.Updates[:half], 90)
	y := NewSyncer(follower.srv, SyncConfig{Peers: []string{primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})
	ctx := context.Background()
	if round := y.RunOnce(ctx); round.Applied != 1 {
		t.Fatalf("first contact = %+v", round)
	}
	// A log pull the follower keeps, so its WAL has records as well as a
	// snapshot when the tampered one arrives.
	pos = ingestAt(t, primary, pos, st.Updates[half:half+40], 40)
	if round := y.RunOnce(ctx); round.Logs != 1 {
		t.Fatalf("honest log round = %+v", round)
	}
	// Five updates touch a strict subset of the banks.
	ingestAt(t, primary, pos, st.Updates[half+40:half+45], 5)

	type state struct {
		payload, log, snap []byte
		pos                int
	}
	read := func() state {
		t.Helper()
		sealed, p, _, err := follower.srv.Payload(ctx, "acme")
		if err != nil {
			t.Fatal(err)
		}
		dir := follower.srv.tenantDir("acme")
		logB, err := os.ReadFile(runtime.LogPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		snapB, err := os.ReadFile(runtime.SnapshotPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return state{sealed, logB, snapB, p}
	}
	before := read()
	rejects := follower.srv.met.SyncDigestReject.Load()

	tampered := &Client{Base: primary.hs.URL, HC: &http.Client{Transport: flipLog{primary.hs.Client().Transport}}, Attempts: 1, Timeout: time.Minute}
	sealed, p, epoch, root, err := tampered.LogAt("acme", before.pos)
	if err != nil {
		t.Fatal(err)
	}
	if _, applied, err := follower.srv.installLog(ctx, "acme", before.pos, p, epoch, root, sealed); applied || !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("tampered suffix: applied %v err %v, want ErrDigestMismatch", applied, err)
	}
	if got := follower.srv.met.SyncDigestReject.Load(); got != rejects+1 {
		t.Fatalf("sync_digest_reject = %d, want %d", got, rejects+1)
	}
	after := read()
	if !bytes.Equal(after.payload, before.payload) || !bytes.Equal(after.log, before.log) ||
		!bytes.Equal(after.snap, before.snap) || after.pos != before.pos {
		t.Fatalf("a rejected suffix moved the follower: pos %d -> %d, payload same %v, log same %v, snapshot same %v",
			before.pos, after.pos, bytes.Equal(after.payload, before.payload), bytes.Equal(after.log, before.log), bytes.Equal(after.snap, before.snap))
	}

	// The syncer meets the same tampering and still converges this round.
	y.peers[0].client.HC = tampered.HC
	round := y.RunOnce(ctx)
	if round.Applied != 1 || round.Logs != 0 || round.Deltas != 1 || round.Pulled != 2 {
		t.Fatalf("tampered round = %+v, want the log pull refused and a bank pull applied", round)
	}
	if got := follower.srv.met.SyncDigestReject.Load(); got != rejects+2 {
		t.Fatalf("sync_digest_reject = %d after the syncer's round, want %d", got, rejects+2)
	}
	samePayload(t, "fallback after a tampered suffix", primary, follower)
}

// TestReplicaLogGone: where the peer has no exact suffix it answers 410 and
// the syncer converges through the bank or full rung in the same round.
func TestReplicaLogGone(t *testing.T) {
	primary := newLogNode(t, "", 200, 100)
	follower := newLogNode(t, "", 1<<20, 100)
	st := bundleStream(40)
	pos := ingestAt(t, primary, 0, st.Updates[:150], 50)
	y := NewSyncer(follower.srv, SyncConfig{Peers: []string{primary.hs.URL}, Timeout: time.Minute, JitterSeed: 7})
	ctx := context.Background()
	if round := y.RunOnce(ctx); round.Applied != 1 {
		t.Fatalf("first contact = %+v", round)
	}
	gone := func(from int) {
		t.Helper()
		_, _, _, _, err := primary.c.LogAt("acme", from)
		var ae *apiError
		if !errors.As(err, &ae) || ae.Status != http.StatusGone {
			t.Fatalf("log from %d: err %v, want 410", from, err)
		}
	}
	gone(pos - 1) // inside the last record
	gone(pos + 1) // past the end
	if _, _, _, _, err := primary.c.LogAt("acme", -3); err == nil {
		t.Fatal("negative from accepted")
	}

	// The primary crosses its SnapshotEvery (200): the follower's position
	// is now inside the snapshot.
	pos = ingestAt(t, primary, pos, st.Updates[150:260], 55)
	gone(150)
	round := y.RunOnce(ctx)
	if round.Applied != 1 || round.Logs != 0 || round.Pulled != 1 {
		t.Fatalf("round behind the snapshot = %+v, want one bank or full pull", round)
	}
	samePayload(t, "behind the snapshot", primary, follower)
	if met, _ := follower.c.Metrics(); met.SyncLogPulls != 0 || met.SyncLogGone != 1 {
		t.Fatalf("sync_log_pulls = %d, sync_log_gone = %d, want 0 and 1", met.SyncLogPulls, met.SyncLogGone)
	}
}

// TestLogSuffixOutweighsSnapshot: a suffix larger than the snapshot is not
// served (410), because the snapshot is then the cheaper thing to ship; a
// short suffix after it still is.
func TestLogSuffixOutweighsSnapshot(t *testing.T) {
	cfg := testConfig(t)
	cfg.Bundle = BundleConfig{N: 4, K: 1, Eps: 1.0, SpannerK: 2, Seed: 3}
	cfg.SnapshotEvery = 1 << 20
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Kill)
	ctx := context.Background()
	// Toggles of three edges: three bytes an update on the wire.
	ups := make([]stream.Update, 20000)
	for i := range ups {
		ups[i] = stream.Update{U: i % 3, V: 3, Delta: int64(1 - 2*(i/3%2))}
	}
	if _, err := s.Ingest(ctx, "t", 0, ups[:6]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	_, _, snapB, _, err := s.WALStats(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	pos, batch := 6, 100
	if len(EncodeUpdates(ups[:batch])) >= snapB {
		t.Fatalf("a %d-update batch outweighs the %d-byte snapshot", batch, snapB)
	}
	for len(EncodeUpdates(ups[6:pos])) <= snapB {
		if pos+batch > len(ups) {
			t.Fatalf("stream too short to outweigh a %d-byte snapshot", snapB)
		}
		if _, err := s.Ingest(ctx, "t", pos, ups[pos:pos+batch]); err != nil {
			t.Fatal(err)
		}
		pos += batch
	}
	if _, _, _, _, err := s.LogSuffix(ctx, "t", 6); !errors.Is(err, runtime.ErrNoSuffix) {
		t.Fatalf("suffix of %d bytes over a %d-byte snapshot: err %v, want ErrNoSuffix", len(EncodeUpdates(ups[6:pos])), snapB, err)
	}
	sealed, p, _, _, err := s.LogSuffix(ctx, "t", pos-batch)
	if err != nil || p != pos || !bytes.Equal(sealed, EncodeUpdates(ups[pos-batch:pos])) {
		t.Fatalf("short suffix: pos %d err %v", p, err)
	}
}
