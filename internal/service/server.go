package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphsketch"
	"graphsketch/internal/runtime"
	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Dir is the data root; each tenant's WAL lives under Dir/<tenant>/.
	Dir string
	// Bundle is the sketch shape given to every tenant.
	Bundle BundleConfig
	// Queue is the per-tenant ingest queue capacity in batches (default
	// 64). A full queue is backpressure: senders block up to their
	// deadline, they do not buffer unboundedly.
	Queue int
	// Fsync and FsyncEvery configure WAL durability (runtime.DiskConfig).
	Fsync      runtime.FsyncPolicy
	FsyncEvery int
	// SnapshotEvery triggers a WAL snapshot after that many ingested
	// updates (default 4096); it bounds recovery replay.
	SnapshotEvery int
	// EpochEvery publishes a fresh read-only epoch clone after that many
	// ingested updates (default 256); it bounds query staleness.
	EpochEvery int
	// TenantBudget caps one tenant's resident bytes (0 = unlimited);
	// ingest beyond it is rejected.
	TenantBudget int64
	// GlobalBudget caps the sum of resident bytes across loaded tenants
	// (0 = unlimited); crossing it evicts the coldest tenant to disk, and
	// rejects if eviction cannot free enough.
	GlobalBudget int64
	// QueryTimeout is the per-request deadline the HTTP middleware applies
	// (default 10s).
	QueryTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4096
	}
	if c.EpochEvery <= 0 {
		c.EpochEvery = 256
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 10 * time.Second
	}
	if c.Bundle.N <= 0 {
		c.Bundle = DefaultBundleConfig(64, 1)
	}
	return c
}

// Sentinel errors; the HTTP layer maps them to status codes.
var (
	ErrDraining         = errors.New("service: draining, intake stopped")
	ErrKilled           = errors.New("service: server killed")
	ErrUnknownTenant    = errors.New("service: unknown tenant")
	ErrBadTenantName    = errors.New("service: bad tenant name")
	ErrTenantBudget     = errors.New("service: tenant memory budget exceeded")
	ErrGlobalBudget     = errors.New("service: global memory budget exceeded")
	ErrPositionConflict = errors.New("service: position conflict")
	// ErrQuarantined fences a tenant whose integrity scrub failed: reads and
	// writes 503 until a peer repair restores verified state. /position
	// still answers (repair needs the position, and a quarantined node must
	// say where it stopped), but nothing computed FROM the suspect state is
	// ever served.
	ErrQuarantined = errors.New("service: tenant quarantined by integrity scrub")
	// errKilledQueued is ErrKilled after the op was queued: it may have
	// taken effect, which a refusal (503) must never mean.
	errKilledQueued = fmt.Errorf("%w with the op queued, which may have taken effect", ErrKilled)
)

// Metrics are the server's monotone counters, all atomics so the HTTP
// layer reads them without locks.
type Metrics struct {
	IngestBatches  atomic.Int64
	IngestUpdates  atomic.Int64
	IngestRejected atomic.Int64
	Queries        atomic.Int64
	QueryPanics    atomic.Int64
	QueryTimeouts  atomic.Int64
	Evictions      atomic.Int64
	Recoveries     atomic.Int64
	// Replication counters: anti-entropy rounds run by this node's syncer,
	// payload installs applied / deduped / failed on this node.
	SyncRounds  atomic.Int64
	SyncApplied atomic.Int64
	SyncSkipped atomic.Int64
	SyncFailed  atomic.Int64
	// Integrity counters: scrub passes over tenants, scrub verdicts that
	// quarantined a tenant, local scrub repairs (disk rewrite / mirror
	// recovery / epoch republish), WAL directories sidelined as corrupt at
	// open, and peer repairs that lifted a quarantine.
	ScrubRounds       atomic.Int64
	ScrubFailed       atomic.Int64
	ScrubRepaired     atomic.Int64
	CorruptSidelined  atomic.Int64
	QuarantineRepairs atomic.Int64
	// Delta anti-entropy counters: installs rejected because the payload
	// manifest contradicted the peer-advertised root, bank-granular delta
	// pulls applied, the wire bytes those deltas cost, and the bytes the
	// equivalent full pulls would have cost (the savings denominator).
	SyncDigestReject   atomic.Int64
	SyncDeltaPulls     atomic.Int64
	SyncDeltaBytes     atomic.Int64
	SyncDeltaFullBytes atomic.Int64
	// SyncLogPulls counts the delta pulls that were log suffixes (the log
	// rung), SyncLogGone the log pulls a peer answered 410 (no exact suffix:
	// the position predates its snapshot, or the suffix outweighs it), each
	// of which fell to the bank rung. WALSnapshotFailed counts periodic
	// snapshots that failed before their rename; the next is tried one
	// SnapshotEvery later.
	SyncLogPulls      atomic.Int64
	SyncLogGone       atomic.Int64
	WALSnapshotFailed atomic.Int64
}

// Epoch is one published point-in-time snapshot: a bundle clone frozen at
// an exact stream position. Queries serve from the freshest epoch and
// report its staleness rather than blocking on (or racing with) the
// writer. The bundle's logical state is immutable here, but query
// execution mutates decode scratch inside the sketches, so concurrent
// queries on one epoch are serialized by the epoch's mutex — never
// against the writer, which owns a different bundle. The two bundles share
// arenas copy-on-write; the writer copies an arena before it writes it, so
// no cell an epoch reads ever moves.
type Epoch struct {
	Bundle *Bundle
	Pos    int
	Seq    uint64
	// Manifest is the bundle's digest tree at publication — the epoch's
	// integrity commitment. /position advertises its root, the scrubber
	// re-verifies state against it, and delta sync diffs against it.
	Manifest wire.Manifest

	mu sync.Mutex
	// spanRes memoizes the epoch's spanner build: the epoch is frozen, so
	// the first spanner or spanner-edge query pays for the construction and
	// every later one answers from the cached certificate.
	spanRes *graphsketch.SpannerResult
}

// MinCut runs the mincut query against the frozen epoch state.
func (e *Epoch) MinCut() (graphsketch.MinCutResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Bundle.MinCut()
}

// Sparsify recovers the epoch's cut sparsifier.
func (e *Epoch) Sparsify() (*graphsketch.Graph, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Bundle.Sparsify()
}

// Spanner builds the epoch's spanner, memoized per epoch (panics on the
// corrupt-log fixture; the HTTP middleware turns that into one failed
// response, and a panicking build is never cached).
func (e *Epoch) Spanner() graphsketch.SpannerResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.spanRes == nil {
		res := e.Bundle.Spanner()
		e.spanRes = &res
	}
	return *e.spanRes
}

// SpannerEdge reports whether edge (u,v) is in the epoch's sparse spanner
// certificate — the membership query a high-traffic caller asks without
// wanting the whole subgraph back.
func (e *Epoch) SpannerEdge(u, v int) (bool, graphsketch.SpannerResult) {
	res := e.Spanner()
	return res.Spanner.HasEdge(u, v), res
}

// Footprint reports the epoch bundle's memory accounting.
func (e *Epoch) Footprint() graphsketch.Footprint {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Bundle.Footprint()
}

// tenant is one keyed sketch registry entry. All mutable sketch state is
// owned by the single writer goroutine; everything crossing the boundary
// is either a queue op or an atomic.
type tenant struct {
	name string
	srv  *Server

	queue chan op
	stop  chan struct{} // drain/evict: writer flushes and exits
	done  chan struct{} // closed when the writer has exited

	snap     atomic.Pointer[Epoch]
	acked    atomic.Int64 // durable stream position
	resident atomic.Int64 // budget-accounting bytes, updated per batch
	touched  atomic.Int64 // logical clock of last use (evict-coldest key)
	closing  atomic.Bool

	// Replication observability, maintained by the syncer's probe/pull
	// rounds: the freshest peer position seen, how many epochs and bytes
	// this replica is behind it, and the primary epoch of the last applied
	// install. Mirrors only — correctness never reads them.
	replPeerPos      atomic.Int64
	replEpochsBehind atomic.Int64
	replBytesPending atomic.Int64
	syncEpoch        atomic.Uint64

	// Quarantine fence, set by the integrity scrubber (or a corrupt-at-open
	// sideline) and cleared only by a verified repair. While set, reads and
	// mutations 503 and the writer neither snapshots nor publishes — the
	// suspect state must not spread to disk, epochs, or peers.
	quarantined atomic.Bool
	quarReason  atomic.Value // string

	stopOnce sync.Once
}

// Quarantined reports whether the tenant is fenced by an integrity failure.
func (t *tenant) Quarantined() bool { return t.quarantined.Load() }

// QuarantineReason returns the fencing cause ("" when healthy).
func (t *tenant) QuarantineReason() string {
	if r, ok := t.quarReason.Load().(string); ok {
		return r
	}
	return ""
}

func (t *tenant) setQuarantine(reason string) {
	t.quarReason.Store(reason)
	t.quarantined.Store(true)
}

func (t *tenant) clearQuarantine() {
	t.quarantined.Store(false)
	t.quarReason.Store("")
}

type op struct {
	ups      []stream.Update
	expectAt int // required current position, -1 to skip the check
	// pull marks ups as a peer's log suffix, kept only if it reproduces the
	// peer's root (see tenant.appendPulled).
	pull *logPull
	// fn runs serialized with ingest in the writer goroutine (merge,
	// payload capture, forced flush). Exactly one of ups/fn is set.
	fn    func(w *runtime.DiskWAL, live *Bundle) error
	reply chan opResult
}

// logPull is what a peer served with a log suffix: the manifest root and
// epoch of its state at the end of the suffix, and the sealed body's size.
type logPull struct {
	root, epoch uint64
	bytes       int
}

type opResult struct {
	pos int
	err error
}

// Server is the multi-tenant sketch service.
type Server struct {
	cfg Config
	met Metrics

	mu      sync.Mutex
	tenants map[string]*tenant

	draining atomic.Bool
	ready    atomic.Bool
	killed   chan struct{}
	killOnce sync.Once
	clock    atomic.Int64

	// syncStatus holds the syncer's per-peer backoff snapshot provider
	// (func() []PeerSyncStatus) for /metricz.
	syncStatus atomic.Value
}

// NewServer creates a server rooted at cfg.Dir (created if missing).
// Existing tenant directories are opened lazily on first touch.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("service: config needs a data dir")
	}
	if err := cfg.Bundle.check(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, tenants: make(map[string]*tenant), killed: make(chan struct{})}, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Metrics exposes the counter block.
func (s *Server) Metrics() *Metrics { return &s.met }

var tenantNameRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// tenantDir maps a validated tenant name to its WAL directory.
func (s *Server) tenantDir(name string) string { return filepath.Join(s.cfg.Dir, name) }

// Tenant returns the named tenant, loading it from disk (recovery) or
// creating it fresh when create is set. A tenant evicted to disk is
// transparently reloaded — eviction is a memory decision, not data loss.
func (s *Server) Tenant(name string, create bool) (*tenant, error) {
	if !tenantNameRe.MatchString(name) || strings.HasSuffix(name, corruptSuffix) {
		return nil, fmt.Errorf("%w: %q", ErrBadTenantName, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		t, ok := s.tenants[name]
		if !ok {
			break
		}
		if !t.closing.Load() {
			t.touched.Store(s.clock.Add(1))
			return t, nil
		}
		// Mid-eviction: the writer still owns the WAL directory. Wait for
		// it to finish closing before reopening, or two writers would race
		// on the same files.
		s.mu.Unlock()
		<-t.done
		s.mu.Lock()
		if s.tenants[name] == t {
			delete(s.tenants, name)
		}
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	onDisk := false
	if _, err := os.Stat(runtime.LogPath(s.tenantDir(name))); err == nil {
		onDisk = true
	}
	if !onDisk && !create {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	diskCfg := runtime.DiskConfig{Policy: s.cfg.Fsync, Every: s.cfg.FsyncEvery}
	sidelined := ""
	wal, err := runtime.OpenDiskWAL(s.tenantDir(name), s.cfg.Bundle.N, diskCfg)
	if err != nil {
		if !errors.Is(err, runtime.ErrWALCorrupt) {
			return nil, err
		}
		if wal, err = s.sidelineCorrupt(name, diskCfg, err); err != nil {
			return nil, err
		}
		sidelined = "wal corrupt at open"
	}
	sk, _, err := wal.Recover(func() runtime.Sketch { return NewBundle(s.cfg.Bundle) })
	if err != nil {
		wal.Close()
		if !errors.Is(err, runtime.ErrWALCorrupt) {
			return nil, err
		}
		if wal, err = s.sidelineCorrupt(name, diskCfg, err); err != nil {
			return nil, err
		}
		sidelined = "wal corrupt at recovery"
		if sk, _, err = wal.Recover(func() runtime.Sketch { return NewBundle(s.cfg.Bundle) }); err != nil {
			wal.Close()
			return nil, err
		}
	}
	if onDisk {
		s.met.Recoveries.Add(1)
	}
	live := sk.(*Bundle)
	t := &tenant{
		name:  name,
		srv:   s,
		queue: make(chan op, s.cfg.Queue),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	t.finish(wal, live)
	t.touched.Store(s.clock.Add(1))
	t.publish(wal, live)
	if sidelined != "" {
		t.setQuarantine(sidelined)
	}
	s.tenants[name] = t
	go t.run(wal, live)
	return t, nil
}

// corruptSuffix marks a sidelined (corrupt) WAL directory. Tenant names
// may not end with it, so a sidelined directory can never collide with —
// or be preloaded as — a live tenant.
const corruptSuffix = ".corrupt"

// sidelineCorrupt preserves a WAL directory that failed integrity at open
// by renaming it to <dir>.corrupt (replacing any previous sideline), then
// opens a fresh empty WAL in its place. The tenant comes up quarantined at
// position 0: it serves nothing until the syncer repairs it from a peer,
// and the rotted evidence stays on disk for forensics.
func (s *Server) sidelineCorrupt(name string, diskCfg runtime.DiskConfig, cause error) (*runtime.DiskWAL, error) {
	dir := s.tenantDir(name)
	side := dir + corruptSuffix
	if err := os.RemoveAll(side); err != nil {
		return nil, fmt.Errorf("sideline %q: %w (corrupt wal: %v)", name, err, cause)
	}
	if err := os.Rename(dir, side); err != nil {
		return nil, fmt.Errorf("sideline %q: %w (corrupt wal: %v)", name, err, cause)
	}
	s.met.CorruptSidelined.Add(1)
	return runtime.OpenDiskWAL(dir, s.cfg.Bundle.N, diskCfg)
}

// Preload opens every tenant directory found under the data root, running
// recovery and publishing each tenant's first epoch, then marks the server
// ready. /readyz answers 503 until this completes: a replica that has not
// recovered its WALs yet would serve positions and payloads that go
// backward, and the failover client must never be routed to it.
func (s *Server) Preload() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasSuffix(e.Name(), corruptSuffix) {
			continue
		}
		if _, statErr := os.Stat(runtime.LogPath(s.tenantDir(e.Name()))); statErr != nil {
			continue
		}
		if _, err := s.Tenant(e.Name(), false); err != nil {
			return fmt.Errorf("preload %q: %w", e.Name(), err)
		}
	}
	s.ready.Store(true)
	return nil
}

// Ready reports whether Preload has completed — the /readyz signal.
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// Snapshot returns the tenant's freshest published epoch.
func (t *tenant) Snapshot() *Epoch { return t.snap.Load() }

// Acked returns the tenant's durable stream position — the exact position
// a client re-feeds from after a restart.
func (t *tenant) Acked() int { return int(t.acked.Load()) }

// Name returns the tenant key.
func (t *tenant) Name() string { return t.name }

// run is the tenant's single-writer loop: the only goroutine that touches
// the WAL and the live bundle. It exits on stop (drain/evict: flush,
// snapshot, close) or on kill (abandon everything mid-flight — the
// SIGKILL model the chaos suite recovers from).
func (t *tenant) run(wal *runtime.DiskWAL, live *Bundle) {
	defer close(t.done)
	sinceSnap, sincePub := 0, 0
	for {
		select {
		case <-t.srv.killed:
			return
		case o := <-t.queue:
			t.apply(o, wal, live, &sinceSnap, &sincePub)
		case <-t.stop:
			for {
				select {
				case <-t.srv.killed:
					return
				case o := <-t.queue:
					t.apply(o, wal, live, &sinceSnap, &sincePub)
				default:
					if sinceSnap > 0 && !t.quarantined.Load() {
						wal.Snapshot(live)
					}
					wal.Close()
					return
				}
			}
		}
	}
}

// apply executes one op in the writer goroutine. Ingest is WAL-first: the
// append must be durable before the sketch moves or the ack is sent. A
// pulled log suffix is the one exception, verified before it is durable
// (appendPulled); after that both take the same snapshot, publish and
// finish tail, so pulled updates count toward SnapshotEvery and EpochEvery.
func (t *tenant) apply(o op, wal *runtime.DiskWAL, live *Bundle, sinceSnap, sincePub *int) {
	if o.fn != nil {
		snap := wal.SnapshotUpdates()
		err := o.fn(wal, live)
		if wal.SnapshotUpdates() != snap {
			// An install or merge snapshotted: replay restarts there.
			*sinceSnap = wal.ReplayUpdates()
		}
		t.finish(wal, live)
		o.reply <- opResult{pos: wal.DurableUpdates(), err: err}
		return
	}
	if o.expectAt >= 0 && o.expectAt != wal.DurableUpdates() {
		o.reply <- opResult{pos: wal.DurableUpdates(), err: ErrPositionConflict}
		return
	}
	var err error
	if o.pull != nil {
		err = t.appendPulled(wal, live, o.ups, o.pull)
	} else if err = wal.Append(o.ups); err == nil {
		live.UpdateBatch(o.ups)
	}
	if err != nil {
		o.reply <- opResult{pos: wal.DurableUpdates(), err: err}
		return
	}
	*sinceSnap += len(o.ups)
	*sincePub += len(o.ups)
	if *sinceSnap >= t.srv.cfg.SnapshotEvery {
		// A snapshot that failed before its rename left the log whole, so
		// nothing is lost: count it and try again a full interval later
		// rather than paying a whole-state marshal on every batch.
		if err := wal.Snapshot(live); err != nil && !errors.Is(err, runtime.ErrTookEffect) {
			t.srv.met.WALSnapshotFailed.Add(1)
		}
		*sinceSnap = 0
	}
	if *sincePub >= t.srv.cfg.EpochEvery {
		t.publish(wal, live)
		*sincePub = 0
	}
	t.finish(wal, live)
	if o.pull == nil {
		t.srv.met.IngestBatches.Add(1)
		t.srv.met.IngestUpdates.Add(int64(len(o.ups)))
	}
	o.reply <- opResult{pos: wal.DurableUpdates()}
}

// appendPulled lands a peer's log suffix in verify-before-durable order: ups
// are applied in memory, and appended to the WAL only if the live manifest
// root then equals the root the peer served with them. On a mismatch or a
// failed append they are undone (Bundle.updateVerified), so a refused suffix
// leaves state, WAL and position as they were. A fenced tenant takes none:
// its repair is a verified install.
func (t *tenant) appendPulled(wal *runtime.DiskWAL, live *Bundle, ups []stream.Update, p *logPull) error {
	if t.quarantined.Load() {
		return fmt.Errorf("%w: %s", ErrQuarantined, t.QuarantineReason())
	}
	undo, err := live.updateVerified(ups, p.root)
	if err != nil {
		return err
	}
	if err := wal.Append(ups); err != nil {
		undo()
		return err
	}
	met := &t.srv.met
	met.SyncApplied.Add(1)
	met.SyncDeltaPulls.Add(1)
	met.SyncLogPulls.Add(1)
	met.SyncDeltaBytes.Add(int64(p.bytes))
	// The last snapshot stands in for the full pull the suffix replaced.
	met.SyncDeltaFullBytes.Add(int64(wal.SnapshotBytes()))
	t.syncEpoch.Store(p.epoch)
	t.replBytesPending.Store(0)
	t.replEpochsBehind.Store(0)
	return nil
}

// finish refreshes the tenant's cross-goroutine mirrors after any op.
func (t *tenant) finish(wal *runtime.DiskWAL, live *Bundle) {
	t.acked.Store(int64(wal.DurableUpdates()))
	t.resident.Store(live.ResidentBytes())
}

// publish installs a fresh epoch clone for queries, stamped with the
// live state's digest manifest (read off the maintained leaves, so it
// costs nothing next to the clone). Suppressed while quarantined — a
// fenced state must not become a served epoch.
func (t *tenant) publish(wal *runtime.DiskWAL, live *Bundle) {
	if t.quarantined.Load() {
		return
	}
	var seq uint64 = 1
	if prev := t.snap.Load(); prev != nil {
		seq = prev.Seq + 1
	}
	man := live.manifest()
	ep := &Epoch{Bundle: live.Clone(), Pos: wal.DurableUpdates(), Seq: seq, Manifest: man}
	// Readers load the epoch and then the acked position, so the position
	// must already cover the epoch when the pointer becomes visible.
	t.acked.Store(int64(ep.Pos))
	t.snap.Store(ep)
}

// submit enqueues an op and waits for the writer's reply, honoring the
// context deadline both while backpressured on a full queue and while
// waiting for the ack.
func (t *tenant) submit(ctx context.Context, o op) (int, error) {
	select {
	case t.queue <- o:
	case <-t.stop:
		return 0, ErrDraining
	case <-t.srv.killed:
		return 0, ErrKilled
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	select {
	case r := <-o.reply:
		return r.pos, r.err
	case <-t.srv.killed:
		// The batch may or may not be durable; the client must re-sync via
		// Acked after the restart — exactly the unacknowledged window the
		// chaos suite re-feeds.
		return 0, errKilledQueued
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Ingest appends one batch to a tenant's stream. expectAt >= 0 asserts the
// tenant's current durable position (the exact re-feed handshake); pass -1
// to skip the check. Returns the durable position after the batch — the
// acknowledgement.
func (s *Server) Ingest(ctx context.Context, tenantName string, expectAt int, ups []stream.Update) (int, error) {
	if s.draining.Load() {
		s.met.IngestRejected.Add(1)
		return 0, ErrDraining
	}
	if err := checkVertices(ups, s.cfg.Bundle.N); err != nil {
		s.met.IngestRejected.Add(1)
		return 0, err
	}
	t, err := s.Tenant(tenantName, true)
	if err != nil {
		s.met.IngestRejected.Add(1)
		return 0, err
	}
	if t.Quarantined() {
		s.met.IngestRejected.Add(1)
		return t.Acked(), fmt.Errorf("%w: %s", ErrQuarantined, t.QuarantineReason())
	}
	if err := s.admit(t); err != nil {
		s.met.IngestRejected.Add(1)
		return 0, err
	}
	return t.submit(ctx, op{ups: ups, expectAt: expectAt, reply: make(chan opResult, 1)})
}

// checkVertices refuses a batch naming a vertex outside [0, n). The kernel
// would panic on it, and once written to the WAL it would panic every
// replay of the log too, so it is refused before it is queued.
func checkVertices(ups []stream.Update, n int) error {
	for i, u := range ups {
		if u.U < 0 || u.U >= n || u.V < 0 || u.V >= n {
			return fmt.Errorf("service: update %d: vertex (%d,%d) outside [0,%d): %w", i, u.U, u.V, n, wire.ErrBadEncoding)
		}
	}
	return nil
}

// Merge folds a sealed bundle payload into a tenant (serialized with its
// ingest) and snapshots immediately so the merged state is durable — merge
// bytes never travel through the update log.
func (s *Server) Merge(ctx context.Context, tenantName string, sealed []byte) (int, error) {
	if s.draining.Load() {
		return 0, ErrDraining
	}
	payload, _, err := wire.Open(sealed)
	if err != nil {
		return 0, err
	}
	t, err := s.Tenant(tenantName, true)
	if err != nil {
		return 0, err
	}
	if t.Quarantined() {
		return t.Acked(), fmt.Errorf("%w: %s", ErrQuarantined, t.QuarantineReason())
	}
	if err := s.admit(t); err != nil {
		return 0, err
	}
	return t.submit(ctx, op{reply: make(chan opResult, 1), fn: func(w *runtime.DiskWAL, live *Bundle) error {
		// install's commit order: fold on a staged bundle, make it durable,
		// swap it in. A failed snapshot leaves live state as it was, so a
		// retry cannot fold twice; after ErrTookEffect live state follows.
		next, err := live.merged(payload)
		if err != nil {
			return err
		}
		durErr := w.Snapshot(next)
		if durErr != nil && !errors.Is(durErr, runtime.ErrTookEffect) {
			return durErr
		}
		*live = *next
		t.publish(w, live)
		return durErr
	}})
}

// Payload captures the tenant's sealed compact bundle payload at its exact
// current position (serialized with ingest, so no torn reads), stamped
// with the tenant's current epoch sequence.
func (s *Server) Payload(ctx context.Context, tenantName string) ([]byte, int, uint64, error) {
	sealed, pos, epoch, _, err := s.PayloadBanks(ctx, tenantName, nil)
	return sealed, pos, epoch, err
}

// PayloadBanks captures a sealed banked payload carrying only the
// requested banks (nil = all) plus the full digest manifest, with the
// manifest root returned for the transport header. The delta anti-entropy
// read side: a peer that knows which banks diverged pulls just those. A
// quarantined tenant serves nothing — its bytes are the suspect ones.
func (s *Server) PayloadBanks(ctx context.Context, tenantName string, banks []int) ([]byte, int, uint64, uint64, error) {
	t, err := s.Tenant(tenantName, false)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if t.Quarantined() {
		return nil, 0, 0, 0, fmt.Errorf("%w: %s", ErrQuarantined, t.QuarantineReason())
	}
	var sealed []byte
	var epoch, root uint64
	pos, err := t.submit(ctx, op{reply: make(chan opResult, 1), fn: func(w *runtime.DiskWAL, live *Bundle) error {
		b, err := live.MarshalBanks(banks)
		if err != nil {
			return err
		}
		root = live.manifest().Root()
		sealed = wire.Seal(b)
		if ep := t.snap.Load(); ep != nil {
			epoch = ep.Seq
		}
		return nil
	}})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return sealed, pos, epoch, root, nil
}

// LogSuffix serves the tenant's log since stream position from, for a
// peer's log rung: the updates as one sealed batch (EncodeUpdates), with the
// live position, epoch and manifest root they lead to, all read in one
// writer op. The error wraps runtime.ErrNoSuffix when the WAL has no exact
// suffix from there (DiskWAL.Suffix) or when the suffix would be larger
// than the last snapshot, so that a bank or full pull is the cheaper way. A
// quarantined tenant serves nothing.
func (s *Server) LogSuffix(ctx context.Context, tenantName string, from int) (sealed []byte, pos int, epoch, root uint64, err error) {
	t, err := s.Tenant(tenantName, false)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	if t.Quarantined() {
		return nil, 0, 0, 0, fmt.Errorf("%w: %s", ErrQuarantined, t.QuarantineReason())
	}
	pos, err = t.submit(ctx, op{reply: make(chan opResult, 1), fn: func(w *runtime.DiskWAL, live *Bundle) error {
		ups, err := w.Suffix(from)
		if err != nil {
			return err
		}
		sealed = EncodeUpdates(ups)
		if snap := w.SnapshotBytes(); snap > 0 && len(sealed) > snap {
			return fmt.Errorf("service: log suffix of %d bytes outweighs the %d-byte snapshot: %w", len(sealed), snap, runtime.ErrNoSuffix)
		}
		root = live.manifest().Root()
		if ep := t.snap.Load(); ep != nil {
			epoch = ep.Seq
		}
		return nil
	}})
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return sealed, pos, epoch, root, nil
}

// ManifestNow returns the tenant's live digest manifest at its exact
// current durable position (serialized with ingest). The delta syncer
// diffs this against a peer's advertised manifest to pick the banks to
// pull. Served even while quarantined: the repair path needs to know what
// the local (possibly rotted) bytes look like — pass recompute=true there
// so every leaf is rebuilt from the actual bytes instead of trusting the
// (pre-rot) maintained leaves.
func (s *Server) ManifestNow(ctx context.Context, tenantName string, recompute bool) (wire.Manifest, int, error) {
	t, err := s.Tenant(tenantName, false)
	if err != nil {
		return wire.Manifest{}, 0, err
	}
	var man wire.Manifest
	pos, err := t.submit(ctx, op{reply: make(chan opResult, 1), fn: func(w *runtime.DiskWAL, live *Bundle) error {
		if recompute {
			live.RecomputeDigests()
		}
		man = live.manifest()
		return nil
	}})
	return man, pos, err
}

// InjectBankRot corrupts one bank of the tenant's live in-memory state
// without moving its maintained digests — the chaos hook integrity tests and
// the sim's bit-rot matrix use. Serialized with ingest like any mutation.
func (s *Server) InjectBankRot(ctx context.Context, tenantName string, bank int, seed uint64) error {
	t, err := s.Tenant(tenantName, false)
	if err != nil {
		return err
	}
	_, err = t.submit(ctx, op{reply: make(chan opResult, 1), fn: func(w *runtime.DiskWAL, live *Bundle) error {
		return live.InjectBankRot(bank, seed)
	}})
	return err
}

// TenantQuarantined reports a tenant's fence state and reason without
// loading it if it is not resident (unknown tenants report healthy).
func (s *Server) TenantQuarantined(name string) (bool, string) {
	s.mu.Lock()
	t, ok := s.tenants[name]
	s.mu.Unlock()
	if !ok {
		return false, ""
	}
	return t.Quarantined(), t.QuarantineReason()
}

// QuarantinedTenants lists the currently fenced tenants.
func (s *Server) QuarantinedTenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for name, t := range s.tenants {
		if t.Quarantined() {
			names = append(names, name)
		}
	}
	return names
}

// SetSyncStatus registers the syncer's per-peer backoff snapshot provider,
// surfaced through /metricz. The server itself never calls the syncer —
// this is observability plumbing only.
func (s *Server) SetSyncStatus(fn func() []PeerSyncStatus) { s.syncStatus.Store(fn) }

func (s *Server) peerSyncStatus() []PeerSyncStatus {
	if fn, ok := s.syncStatus.Load().(func() []PeerSyncStatus); ok && fn != nil {
		return fn()
	}
	return nil
}

// SyncApply installs a peer's sealed bundle payload as the tenant's state at
// the peer's stream position pos. It is the one way a peer's state lands on
// a tenant — pull, delta pull and peer repair alike — because a payload at
// position P is the complete state of the prefix [0,P): all three replace
// the local state by a peer's verified one. What differs between them is
// observed where the install runs, not chosen by the caller:
//
//   - full or banks is in the payload (Bundle.assemble): a full payload is
//     rebuilt in a factory-fresh bundle, a bank payload grafted onto a clone
//     of the live one;
//   - healthy or fenced is the tenant's quarantine flag, read once, inside
//     the writer goroutine, so no scrub verdict lands between the reading
//     and the install.
//
// A healthy tenant dedupes by position (an install at or below its durable
// position is a no-op, which makes duplicated and reordered pulls
// idempotent), so its position only moves forward and every state it holds
// is some replica's exact prefix — the position-addressed ingest protocol
// keeps working across installs. A fenced tenant's position vouches for
// corrupt bytes: the peer's state wins at any position, its leaves are
// rebuilt from the bytes before an absent bank is trusted, and the install
// lifts the fence.
//
// Commit order, shared with Merge and the scrubber's recover tier: verify,
// bytes durable, *live = *next, mirrors and fence, publish. An error leaves
// live state, disk, epoch, position and fence as they were, except one
// wrapping runtime.ErrTookEffect: the WAL has installed the payload, so
// the install is carried through and the error reports what came after.
func (s *Server) SyncApply(ctx context.Context, tenantName string, pos int, epoch uint64, root uint64, sealed []byte) (int, error) {
	acked, _, err := s.install(ctx, tenantName, pos, epoch, root, sealed)
	return acked, err
}

// SyncApplyDelta is SyncApply under the name bank installs used to have;
// benchmark/inproc.go pins it.
func (s *Server) SyncApplyDelta(ctx context.Context, tenantName string, pos int, epoch uint64, root uint64, sealed []byte) (int, error) {
	return s.SyncApply(ctx, tenantName, pos, epoch, root, sealed)
}

// install is SyncApply that also reports whether state moved (false: deduped
// by position), which the syncer's round counters need.
func (s *Server) install(ctx context.Context, tenantName string, pos int, epoch uint64, root uint64, sealed []byte) (acked int, applied bool, err error) {
	if s.draining.Load() {
		return 0, false, ErrDraining
	}
	payload, _, err := wire.Open(sealed)
	if err != nil {
		s.met.SyncFailed.Add(1)
		return 0, false, err
	}
	t, err := s.Tenant(tenantName, true)
	if err != nil {
		return 0, false, err
	}
	// Budgets gate growth, so they bind healthy tenants only: a fenced one
	// serves nothing until repaired and must not be refused its repair. This
	// reading decides nothing else — the install reads the fence for itself.
	if !t.Quarantined() {
		if err := s.admit(t); err != nil {
			return 0, false, err
		}
	}
	acked, err = t.submit(ctx, op{reply: make(chan opResult, 1), fn: func(w *runtime.DiskWAL, live *Bundle) (err error) {
		if applied, err = t.install(w, live, pos, epoch, root, sealed, payload); err != nil {
			s.met.SyncFailed.Add(1)
			if errors.Is(err, ErrDigestMismatch) {
				// Bank bytes contradict the payload's own manifest (corrupted
				// after the peer sealed it), or the manifest contradicts the
				// root the peer advertised (corrupted in flight past the
				// envelope CRC, or a lying peer).
				s.met.SyncDigestReject.Add(1)
			}
		}
		return err
	}})
	return acked, applied, err
}

// install runs in the writer goroutine; payload is sealed, opened.
func (t *tenant) install(w *runtime.DiskWAL, live *Bundle, pos int, epoch, root uint64, sealed, payload []byte) (bool, error) {
	met := &t.srv.met
	fenced := t.quarantined.Load()
	if !fenced && pos <= w.DurableUpdates() {
		met.SyncSkipped.Add(1)
		return false, nil
	}
	next, full, err := live.assemble(payload, fenced)
	if err != nil {
		return false, err
	}
	if man := next.manifest(); root != 0 && man.Root() != root {
		return false, fmt.Errorf("service: payload root %016x != advertised %016x: %w", man.Root(), root, ErrDigestMismatch)
	}
	// A full payload's received bytes are the snapshot (next is what they
	// decode to); a bank payload is not the whole state, so seal next's.
	durable := sealed
	if !full {
		whole, err := next.MarshalBinaryCompact()
		if err != nil {
			return false, err
		}
		durable = wire.Seal(whole)
	}
	// ErrTookEffect: the snapshot is installed and the WAL is at pos, but a
	// step after its rename failed. Live state must follow the WAL; the
	// error is still returned.
	durErr := w.InstallSnapshot(durable, pos)
	if durErr != nil && !errors.Is(durErr, runtime.ErrTookEffect) {
		return false, durErr
	}
	*live = *next
	t.syncEpoch.Store(epoch)
	t.replBytesPending.Store(0)
	t.replEpochsBehind.Store(0)
	if fenced {
		t.clearQuarantine()
		met.QuarantineRepairs.Add(1)
	}
	t.publish(w, live)
	met.SyncApplied.Add(1)
	if !full {
		met.SyncDeltaPulls.Add(1)
		met.SyncDeltaBytes.Add(int64(len(sealed)))
		met.SyncDeltaFullBytes.Add(int64(len(durable)))
	}
	return true, durErr
}

// installLog lands a peer's log suffix (LogSuffix's answer to ?from=from)
// on a healthy tenant at position from: decoded and checked like ingest,
// then appended by the writer only if it reproduces root (appendPulled).
// It reports whether state moved (false: an empty suffix). Any error leaves
// the tenant as it was; the syncer then falls through to a bank or full
// pull.
func (s *Server) installLog(ctx context.Context, tenantName string, from, pos int, epoch, root uint64, sealed []byte) (acked int, applied bool, err error) {
	if s.draining.Load() {
		return 0, false, ErrDraining
	}
	t, err := s.Tenant(tenantName, false)
	if err != nil {
		return 0, false, err
	}
	if t.Quarantined() {
		return 0, false, fmt.Errorf("%w: %s", ErrQuarantined, t.QuarantineReason())
	}
	ups, err := decodeLogSuffix(sealed, s.cfg.Bundle.N)
	if err == nil && from+len(ups) != pos {
		err = fmt.Errorf("service: %d updates from position %d cannot end at %d: %w", len(ups), from, pos, wire.ErrBadEncoding)
	}
	if err != nil {
		s.met.SyncFailed.Add(1)
		return 0, false, err
	}
	if len(ups) == 0 {
		s.met.SyncSkipped.Add(1)
		return t.Acked(), false, nil
	}
	if err := s.admit(t); err != nil {
		return 0, false, err
	}
	acked, err = t.submit(ctx, op{ups: ups, expectAt: from, pull: &logPull{root: root, epoch: epoch, bytes: len(sealed)}, reply: make(chan opResult, 1)})
	if err != nil {
		s.met.SyncFailed.Add(1)
		if errors.Is(err, ErrDigestMismatch) {
			s.met.SyncDigestReject.Add(1)
		}
		return acked, false, err
	}
	return acked, true, nil
}

// decodeLogSuffix opens a log-suffix body and checks it for the log rung:
// one sealed batch with nothing after it, every vertex in [0, n) (as ingest
// checks), and no delta of math.MinInt64, whose negation overflows — the
// rung undoes a refused suffix by negating it. Every error wraps
// wire.ErrBadEncoding.
func decodeLogSuffix(sealed []byte, n int) ([]stream.Update, error) {
	payload, rest, err := wire.Open(sealed)
	if err != nil {
		return nil, fmt.Errorf("service: log suffix: %w", err)
	}
	ups, tail, err := stream.DecodeBatch(payload)
	if err != nil {
		return nil, fmt.Errorf("service: log suffix: %w", err)
	}
	if len(tail) != 0 || len(rest) != 0 {
		return nil, fmt.Errorf("service: log suffix trailing bytes: %w", wire.ErrBadEncoding)
	}
	for i, u := range ups {
		if u.Delta == math.MinInt64 {
			return nil, fmt.Errorf("service: log suffix update %d: delta %d has no negation: %w", i, u.Delta, wire.ErrBadEncoding)
		}
	}
	return ups, checkVertices(ups, n)
}

// Flush forces a WAL snapshot for a tenant (exposed for the drain path and
// operational tooling).
func (s *Server) Flush(ctx context.Context, tenantName string) (int, error) {
	t, err := s.Tenant(tenantName, false)
	if err != nil {
		return 0, err
	}
	if t.Quarantined() {
		// Flushing would snapshot suspect bytes over the durable state.
		return t.Acked(), fmt.Errorf("%w: %s", ErrQuarantined, t.QuarantineReason())
	}
	return t.submit(ctx, op{reply: make(chan opResult, 1), fn: func(w *runtime.DiskWAL, live *Bundle) error {
		t.publish(w, live)
		return w.Snapshot(live)
	}})
}

// WALStats reports a tenant's durable byte split for observability rows.
func (s *Server) WALStats(ctx context.Context, tenantName string) (durable, logBytes, snapBytes, replay int, err error) {
	t, err := s.Tenant(tenantName, false)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	_, err = t.submit(ctx, op{reply: make(chan opResult, 1), fn: func(w *runtime.DiskWAL, live *Bundle) error {
		durable, logBytes, snapBytes, replay = w.DurableUpdates(), w.LogBytes(), w.SnapshotBytes(), w.ReplayUpdates()
		return nil
	}})
	return durable, logBytes, snapBytes, replay, err
}

// admit enforces the memory budgets before a mutation is queued: a tenant
// over its own budget is rejected; a global overrun first evicts the
// coldest other tenant to disk and only rejects if that cannot free
// enough.
func (s *Server) admit(t *tenant) error {
	if b := s.cfg.TenantBudget; b > 0 && t.resident.Load() > b {
		return fmt.Errorf("%w: tenant %q resident %d > %d", ErrTenantBudget, t.name, t.resident.Load(), b)
	}
	if b := s.cfg.GlobalBudget; b > 0 {
		for s.globalResident() > b {
			if !s.evictColdest(t.name) {
				return fmt.Errorf("%w: resident %d > %d and nothing evictable", ErrGlobalBudget, s.globalResident(), b)
			}
		}
	}
	return nil
}

// globalResident sums resident bytes across loaded tenants.
func (s *Server) globalResident() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	for _, t := range s.tenants {
		sum += t.resident.Load()
	}
	return sum
}

// evictColdest flushes the least-recently-touched loaded tenant (other
// than keep) to disk and unloads it. Returns false when there is no
// candidate.
func (s *Server) evictColdest(keep string) bool {
	s.mu.Lock()
	var victim *tenant
	for _, t := range s.tenants {
		if t.name == keep || t.closing.Load() {
			continue
		}
		if victim == nil || t.touched.Load() < victim.touched.Load() {
			victim = t
		}
	}
	if victim != nil {
		// The entry stays in the map (closing) until the writer has closed
		// the WAL; Tenant waits on done before reopening the directory.
		victim.closing.Store(true)
	}
	s.mu.Unlock()
	if victim == nil {
		return false
	}
	victim.stopOnce.Do(func() { close(victim.stop) })
	<-victim.done
	s.mu.Lock()
	if s.tenants[victim.name] == victim {
		delete(s.tenants, victim.name)
	}
	s.mu.Unlock()
	s.met.Evictions.Add(1)
	return true
}

// Draining reports whether intake has been stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the service down: stop intake, let every writer
// flush its queue, snapshot, and close its WAL. Safe to call once; after
// it returns the data directory is a clean cold start.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	for _, t := range ts {
		t.closing.Store(true)
		t.stopOnce.Do(func() { close(t.stop) })
	}
	for _, t := range ts {
		select {
		case <-t.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Kill hard-stops the server in place: every writer abandons its queue and
// its WAL mid-flight with no flush and no acks — the in-process model of
// SIGKILL the chaos suite uses under -race. Durable state is whatever
// completed writes made it to the files.
func (s *Server) Kill() {
	s.killOnce.Do(func() { close(s.killed) })
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	for _, t := range ts {
		<-t.done
	}
}

// TenantNames lists the loaded tenants.
func (s *Server) TenantNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	return names
}
