package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphsketch/internal/runtime"
	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

func testConfig(t *testing.T) Config {
	return Config{
		Dir:           t.TempDir(),
		Bundle:        testBundleConfig(),
		SnapshotEvery: 400,
		EpochEvery:    100,
		QueryTimeout:  30 * time.Second,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	// A generous per-request deadline: under the race detector a single
	// big-batch ingest can exceed the 5s production default, and a retried
	// POST whose first attempt actually landed turns into a spurious 409.
	return s, &Client{Base: hs.URL, HC: hs.Client(), Timeout: 2 * time.Minute}
}

// TestServeIngestAndQuery drives the full HTTP surface: positioned ingest,
// all four queries with staleness metadata, and the payload endpoint.
func TestServeIngestAndQuery(t *testing.T) {
	s, c := newTestServer(t, testConfig(t))
	defer s.Drain(context.Background())
	st := bundleStream(21)

	pos := 0
	for pos < len(st.Updates) {
		end := min(pos+75, len(st.Updates))
		acked, err := c.Ingest("acme", pos, st.Updates[pos:end])
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		if acked != end {
			t.Fatalf("acked %d, want %d", acked, end)
		}
		pos = end
	}

	mc, err := c.MinCut("acme")
	if err != nil {
		t.Fatalf("mincut: %v", err)
	}
	if mc.Acked != len(st.Updates) || mc.Staleness != mc.Acked-mc.Pos || mc.Staleness < 0 {
		t.Fatalf("bad query meta: %+v", mc.QueryMeta)
	}
	if _, err := c.Sparsify("acme"); err != nil {
		t.Fatalf("sparsify: %v", err)
	}
	sp, err := c.Spanner("acme")
	if err != nil {
		t.Fatalf("spanner: %v", err)
	}
	if sp.Edges == 0 {
		t.Fatal("spanner returned no edges")
	}
	fp, err := c.Footprint("acme")
	if err != nil {
		t.Fatalf("footprint: %v", err)
	}
	if fp.WALDurable != len(st.Updates) || fp.Footprint.ResidentBytes == 0 {
		t.Fatalf("bad footprint row: %+v", fp)
	}
	if fp.WALLogBytes+fp.WALSnapshotBytes == 0 {
		t.Fatal("footprint row missing durable byte split")
	}

	// The re-feed handshake: a stale position is a conflict carrying the
	// authoritative ack.
	if _, err := c.Ingest("acme", 0, st.Updates[:10]); err == nil {
		t.Fatal("stale positioned ingest succeeded")
	}

	payload, err := c.Payload("acme")
	if err != nil {
		t.Fatalf("payload: %v", err)
	}
	ref := NewBundle(testBundleConfig())
	ref.UpdateBatch(st.Updates)
	want, err := ref.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := DecodeSealed(payload)
	if err != nil {
		t.Fatalf("open payload: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("served payload not bit-identical to local ingest")
	}
}

// TestServeBudgetIsolation pins admission control: a tenant over its
// budget is rejected while a sibling tenant keeps ingesting — one noisy
// tenant cannot take down the service.
func TestServeBudgetIsolation(t *testing.T) {
	cfg := testConfig(t)
	// Budgets are set just above an empty bundle's preallocated resident
	// size, so the first batch is admitted and the growth from buffered
	// updates crosses the line.
	cfg.TenantBudget = NewBundle(cfg.Bundle).ResidentBytes() + 600
	s, _ := newTestServer(t, cfg)
	defer s.Drain(context.Background())
	ctx := context.Background()
	st := bundleStream(13)

	if _, err := s.Ingest(ctx, "noisy", -1, st.Updates[:50]); err != nil {
		t.Fatalf("first ingest should land: %v", err)
	}
	_, err := s.Ingest(ctx, "noisy", -1, st.Updates[50:100])
	if !errors.Is(err, ErrTenantBudget) {
		t.Fatalf("over-budget ingest: got %v, want ErrTenantBudget", err)
	}
	if s.Metrics().IngestRejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}
	// The sibling's budget is its own: it gets its first batch in too, and
	// its queries keep serving.
	if _, err := s.Ingest(ctx, "quiet", -1, st.Updates[:50]); err != nil {
		t.Fatalf("sibling ingest rejected: %v", err)
	}
	if _, _, _, err := s.Payload(ctx, "quiet"); err != nil {
		t.Fatalf("sibling payload: %v", err)
	}
}

// TestServeEvictColdest pins the global-budget path: crossing it evicts
// the least-recently-touched tenant to disk, and a later touch reloads it
// with nothing lost.
func TestServeEvictColdest(t *testing.T) {
	cfg := testConfig(t)
	// One loaded tenant fits, two do not: admitting the second must evict
	// the first rather than reject.
	cfg.GlobalBudget = NewBundle(cfg.Bundle).ResidentBytes() + 600
	s, _ := newTestServer(t, cfg)
	defer s.Drain(context.Background())
	ctx := context.Background()
	st := bundleStream(17)

	if _, err := s.Ingest(ctx, "cold", -1, st.Updates[:100]); err != nil {
		t.Fatalf("cold ingest: %v", err)
	}
	// Admitting hot evicts cold (the only other tenant).
	if _, err := s.Ingest(ctx, "hot", -1, st.Updates[:100]); err != nil {
		t.Fatalf("hot ingest: %v", err)
	}
	if s.Metrics().Evictions.Load() == 0 {
		t.Fatal("no eviction recorded")
	}
	// Cold's durable state survived eviction; touching it reloads from
	// disk at the exact position.
	tn, err := s.Tenant("cold", false)
	if err != nil {
		t.Fatalf("reload cold: %v", err)
	}
	if tn.Acked() != 100 {
		t.Fatalf("cold position after reload: %d, want 100", tn.Acked())
	}
	if s.Metrics().Recoveries.Load() == 0 {
		t.Fatal("reload not counted as recovery")
	}
}

// TestServeDrain pins graceful shutdown: intake stops, WALs flush and
// snapshot, and a cold restart resumes at the exact position.
func TestServeDrain(t *testing.T) {
	cfg := testConfig(t)
	s, _ := newTestServer(t, cfg)
	ctx := context.Background()
	st := bundleStream(23)

	if _, err := s.Ingest(ctx, "acme", -1, st.Updates[:500]); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Ingest(ctx, "acme", -1, st.Updates[500:600]); !errors.Is(err, ErrDraining) {
		t.Fatalf("ingest during drain: got %v, want ErrDraining", err)
	}

	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Drain(ctx)
	tn, err := s2.Tenant("acme", false)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if tn.Acked() != 500 {
		t.Fatalf("position after drain+restart: %d, want 500", tn.Acked())
	}
	// The drain snapshot means restart replays no log records.
	if _, lb, _, replay, err := s2.WALStats(ctx, "acme"); err != nil || replay != 0 || lb != 0 {
		t.Fatalf("drain did not leave a clean snapshot: log=%d replay=%d err=%v", lb, replay, err)
	}
}

// TestServePanicIsolation pins the middleware: merging the corrupt-payload
// fixture makes exactly the spanner query fail with a 5xx while every
// other request — and the same query on a healthy tenant — keeps serving.
func TestServePanicIsolation(t *testing.T) {
	s, c := newTestServer(t, testConfig(t))
	defer s.Drain(context.Background())
	// The hardened client treats 5xx as failover-class and would re-try the
	// panicking query; this test pins the SERVER's per-request isolation, so
	// give it exactly one attempt.
	c.Attempts = 1
	st := bundleStream(29)

	if _, err := c.Ingest("healthy", -1, st.Updates); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	evil := NewBundle(testBundleConfig())
	evil.UpdateBatch(st.Updates[:100])
	evil.spLog = append(evil.spLog, stream.Update{U: 9999, V: 3, Delta: 1})
	evil.coalesced = len(evil.spLog)
	evil.RecomputeDigests() // the raw append bypassed the maintained leaves
	payload, err := evil.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal fixture: %v", err)
	}
	if _, err := c.Merge("victim", SealPayload(payload)); err != nil {
		t.Fatalf("merge fixture: %v", err)
	}

	_, err = c.Spanner("victim")
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != 500 {
		t.Fatalf("corrupt spanner query: got %v, want http 500", err)
	}
	if got := s.Metrics().QueryPanics.Load(); got != 1 {
		t.Fatalf("QueryPanics = %d, want 1", got)
	}
	// One poisoned response, not a poisoned server.
	if _, err := c.MinCut("victim"); err != nil {
		t.Fatalf("mincut on victim after panic: %v", err)
	}
	if _, err := c.Spanner("healthy"); err != nil {
		t.Fatalf("spanner on healthy tenant after panic: %v", err)
	}
	if _, err := c.Ingest("healthy", -1, st.Updates[:0:0]); err != nil {
		t.Fatalf("ingest after panic: %v", err)
	}
	if err := c.Healthz(); err != nil {
		t.Fatalf("healthz after panic: %v", err)
	}
}

// TestServeQueueBackpressure pins that a full queue blocks the sender up
// to its deadline instead of buffering unboundedly.
func TestServeQueueBackpressure(t *testing.T) {
	cfg := testConfig(t)
	cfg.Queue = 1
	s, _ := newTestServer(t, cfg)
	defer s.Drain(context.Background())
	st := bundleStream(31)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// Hammer ingest from several goroutines; with capacity 1 the queue is
	// constantly full, so every send exercises the backpressure path.
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 10 && err == nil; i++ {
				_, err = s.Ingest(ctx, "acme", -1, st.Updates[:25])
			}
			errs <- err
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatalf("backpressured ingest failed: %v", err)
		}
	}
	tn, err := s.Tenant("acme", false)
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.Acked(); got != 4*10*25 {
		t.Fatalf("acked %d, want %d", got, 4*10*25)
	}
}

// TestMergeFailedSnapshotLeavesState pins Merge's commit order: a merge
// whose snapshot cannot be written leaves payload, position and root as
// they were, so the client retrying that error folds the payload once, not
// twice.
func TestMergeFailedSnapshotLeavesState(t *testing.T) {
	cfg := testConfig(t)
	cfg.SnapshotEvery = 1 << 20 // no snapshot file yet: the merge's is the first
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Kill)
	ctx := context.Background()
	st := bundleStream(31)
	half := len(st.Updates) / 2
	if _, err := s.Ingest(ctx, "t", 0, st.Updates[:half]); err != nil {
		t.Fatal(err)
	}
	other := NewBundle(cfg.Bundle)
	other.UpdateBatch(st.Updates[half:])
	payload, err := other.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	state := func() ([]byte, int, uint64) {
		t.Helper()
		sealed, pos, _, err := s.Payload(ctx, "t")
		if err != nil {
			t.Fatal(err)
		}
		man, _, err := s.ManifestNow(ctx, "t", false)
		if err != nil {
			t.Fatal(err)
		}
		return sealed, pos, man.Root()
	}
	before, pos, root := state()

	// A non-empty directory where the snapshot goes: its rename fails.
	snap := runtime.SnapshotPath(s.tenantDir("t"))
	if err := os.MkdirAll(filepath.Join(snap, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge(ctx, "t", SealPayload(payload)); err == nil {
		t.Fatal("merge with an unwritable snapshot succeeded")
	}
	after, pos2, root2 := state()
	if !bytes.Equal(before, after) || pos != pos2 || root != root2 {
		t.Fatalf("failed merge moved the tenant: pos %d -> %d, root %016x -> %016x, payload changed %v",
			pos, pos2, root, root2, !bytes.Equal(before, after))
	}

	if err := os.RemoveAll(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge(ctx, "t", SealPayload(payload)); err != nil {
		t.Fatalf("merge after the blocker is gone: %v", err)
	}
	whole := NewBundle(cfg.Bundle)
	whole.UpdateBatch(st.Updates)
	want, err := whole.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := state(); !bytes.Equal(got, SealPayload(want)) {
		t.Fatal("the tenant does not hold exactly one fold of the payload")
	}
}

// TestIngestRejectsOutOfRangeVertex: a batch naming a vertex outside [0, N)
// is refused with a 400 before it is queued. Written to the WAL it would
// panic the writer in the kernel, and every restart replaying the record
// would panic again.
func TestIngestRejectsOutOfRangeVertex(t *testing.T) {
	cfg := testConfig(t)
	s, c := newTestServer(t, cfg)
	t.Cleanup(s.Kill)
	st := bundleStream(36)
	half := len(st.Updates) / 2
	if _, err := c.Ingest("acme", 0, st.Updates[:half]); err != nil {
		t.Fatal(err)
	}
	logPath := runtime.LogPath(s.tenantDir("acme"))
	logBefore, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Bundle.N
	for _, bad := range [][]stream.Update{
		{{U: 0, V: 1, Delta: 1}, {U: 2, V: n, Delta: 1}},
		{{U: n + 7, V: 3, Delta: -1}},
		{{U: -1, V: 3, Delta: 1}},
	} {
		_, err := c.Ingest("acme", half, bad)
		var ae *apiError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("ingest of %v: err %v, want a 400", bad, err)
		}
		if _, err := s.Ingest(context.Background(), "acme", half, bad); !errors.Is(err, wire.ErrBadEncoding) {
			t.Fatalf("Server.Ingest of %v: err %v, want ErrBadEncoding", bad, err)
		}
		if p, err := c.Position("acme"); err != nil || p != half {
			t.Fatalf("position after a refused batch: %d err %v, want %d", p, err, half)
		}
		if logNow, err := os.ReadFile(logPath); err != nil || !bytes.Equal(logNow, logBefore) {
			t.Fatalf("a refused batch reached the WAL (err %v)", err)
		}
	}
	if got := s.met.IngestRejected.Load(); got != 6 {
		t.Fatalf("IngestRejected = %d, want 6", got)
	}
	if pos, err := c.Ingest("acme", half, st.Updates[half:]); err != nil || pos != len(st.Updates) {
		t.Fatalf("ingest after the refusals: pos %d err %v", pos, err)
	}
	if _, err := c.MinCut("acme"); err != nil {
		t.Fatalf("query after the refusals: %v", err)
	}
}

// TestPeriodicSnapshotFailureCounted: a periodic snapshot that fails before
// its rename is counted in wal_snapshot_failed and retried at the next
// SnapshotEvery boundary, not on every batch. Acks are unaffected, the log
// keeps every update, and a reopen recovers them exactly.
func TestPeriodicSnapshotFailureCounted(t *testing.T) {
	cfg := testConfig(t)
	cfg.SnapshotEvery = 100
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Kill)
	ctx := context.Background()
	if _, err := s.Tenant("t", true); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory where the snapshot goes: every rename fails.
	snap := runtime.SnapshotPath(s.tenantDir("t"))
	if err := os.MkdirAll(filepath.Join(snap, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	st := bundleStream(37)
	ups := st.Updates[:300]
	for pos := 0; pos < len(ups); pos += 10 {
		if got, err := s.Ingest(ctx, "t", pos, ups[pos:pos+10]); err != nil || got != pos+10 {
			t.Fatalf("ingest at %d: acked %d err %v", pos, got, err)
		}
	}
	if got := s.met.WALSnapshotFailed.Load(); got != 3 {
		t.Fatalf("wal_snapshot_failed = %d after three SnapshotEvery boundaries, want 3", got)
	}
	_, _, snapBytes, replay, err := s.WALStats(ctx, "t")
	if err != nil || snapBytes != 0 || replay != len(ups) {
		t.Fatalf("WAL after failed snapshots: snapshot %d bytes, replay %d (err %v), want 0 and %d", snapBytes, replay, err, len(ups))
	}

	s.Kill()
	if err := os.RemoveAll(snap); err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Kill)
	if err := s2.Preload(); err != nil {
		t.Fatal(err)
	}
	sealed, pos, _, err := s2.Payload(ctx, "t")
	if err != nil || pos != len(ups) {
		t.Fatalf("recovered at %d (err %v), want %d", pos, err, len(ups))
	}
	whole := NewBundle(cfg.Bundle)
	whole.UpdateBatch(ups)
	want, err := whole.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := DecodeSealed(sealed); !bytes.Equal(got, want) {
		t.Fatal("recovered state is not the state of the acked updates")
	}
}
