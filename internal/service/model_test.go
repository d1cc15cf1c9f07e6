package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"graphsketch/internal/runtime"
	"graphsketch/internal/stream"
)

// The tenant state machine, as a pure model. Everything a tenant is, from
// the outside, is a durable position, a fence, and the state bytes — and
// because every state a tenant ever holds is a prefix state of one stream
// (ingest extends the prefix, an install replaces it by a peer's), the bytes
// are a function of the position: oracle(pos). The model therefore carries no
// sketch at all.
type modelTenant struct {
	pos    int  // durable position; the real Acked() must equal it
	fenced bool // quarantined; survives nothing but a verified install — or a restart
	// diskRot: the on-disk snapshot is rotted, so the next open sidelines the
	// directory and comes up empty and fenced. Cleared by an install (it
	// rewrites the snapshot) and by the sideline itself.
	diskRot bool
	// seqFloor is the last epoch Seq seen; within one server lifetime Seq
	// never goes below it. A restart starts over at 1.
	seqFloor uint64
}

// prefixOracle is oracle(P): the payload of a bundle fed the first P updates
// of the model test's one stream, extended lazily and kept for every P passed.
type prefixOracle struct {
	st       *stream.Stream
	b        *Bundle
	payloads [][]byte
}

func newPrefixOracle(cfg BundleConfig, st *stream.Stream) *prefixOracle {
	return &prefixOracle{st: st, b: NewBundle(cfg)}
}

func (o *prefixOracle) at(t *testing.T, p int) []byte {
	t.Helper()
	for len(o.payloads) <= p {
		if n := len(o.payloads); n > 0 {
			o.b.UpdateBatch(o.st.Updates[n-1 : n])
		}
		data, err := o.b.MarshalBinaryCompact()
		if err != nil {
			t.Fatalf("oracle marshal at %d: %v", len(o.payloads), err)
		}
		o.payloads = append(o.payloads, data)
	}
	return o.payloads[p]
}

const modelTenantName = "acme"

func modelBundleConfig() BundleConfig {
	return BundleConfig{N: 8, K: 2, Eps: 1.0, SpannerK: 2, Seed: 7}
}

// modelRun is one seed's run: the subject server a (restarted in place by the
// reopen op), an always-healthy peer b whose payloads get installed into it,
// and the model of a's tenant.
type modelRun struct {
	t      *testing.T
	rng    *rand.Rand
	cfg    Config // a's; Dir survives reopen
	a, b   *Server
	bpos   int
	bLog   peerLog
	m      modelTenant
	oracle *prefixOracle
	cells  map[string]int // (full|banks)/(healthy|fenced) installs applied, across seeds
	// logCells counts log-pull outcomes across seeds: applied, and each
	// reason a pull is refused.
	logCells map[string]int
	ctx      context.Context
	// ackedDrop is set by the two ops allowed to move Acked() backward.
	ackedDrop bool
	lastAcked int
	// fencedEp is the epoch that was current when the fence went up; it must
	// stay current until the fence lifts.
	fencedEp *Epoch
}

func (r *modelRun) open(cfg Config) *Server {
	r.t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		r.t.Fatalf("NewServer: %v", err)
	}
	r.t.Cleanup(s.Kill)
	if err := s.Preload(); err != nil {
		r.t.Fatalf("Preload: %v", err)
	}
	if _, err := s.Tenant(modelTenantName, true); err != nil {
		r.t.Fatalf("tenant: %v", err)
	}
	return s
}

func (r *modelRun) tenant() *tenant {
	r.t.Helper()
	t, err := r.a.Tenant(modelTenantName, false)
	if err != nil {
		r.t.Fatalf("tenant: %v", err)
	}
	return t
}

// observed is everything a failed op must leave alone.
type observed struct {
	pos    int
	seq    uint64
	fenced bool
	root   uint64 // of the live bytes as they are (leaves rebuilt when fenced)
	ep     *Epoch
}

func (r *modelRun) observe() observed {
	r.t.Helper()
	t := r.tenant()
	fenced := t.Quarantined()
	man, _, err := r.a.ManifestNow(r.ctx, modelTenantName, fenced)
	if err != nil {
		r.t.Fatalf("manifest: %v", err)
	}
	ep := t.Snapshot()
	return observed{pos: t.Acked(), seq: ep.Seq, fenced: fenced, root: man.Root(), ep: ep}
}

// get returns the status the subject's HTTP surface answers GET path with.
func (r *modelRun) get(path string) int {
	rec := httptest.NewRecorder()
	r.a.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code
}

// check compares the real tenant with the model and asserts the invariants
// that hold after every step.
func (r *modelRun) check(step string) {
	r.t.Helper()
	t := r.tenant()
	ep := t.Snapshot()
	acked := t.Acked()
	if ep.Pos > acked {
		r.t.Fatalf("%s: epoch pos %d > acked %d", step, ep.Pos, acked)
	}
	if acked != r.m.pos || t.Quarantined() != r.m.fenced {
		r.t.Fatalf("%s: real (acked %d, fenced %v) != model (pos %d, fenced %v)", step, acked, t.Quarantined(), r.m.pos, r.m.fenced)
	}
	if ep.Seq < r.m.seqFloor {
		r.t.Fatalf("%s: epoch seq went %d -> %d", step, r.m.seqFloor, ep.Seq)
	}
	r.m.seqFloor = ep.Seq
	if acked < r.lastAcked && !r.ackedDrop {
		r.t.Fatalf("%s: acked went %d -> %d outside a fenced install or a sideline", step, r.lastAcked, acked)
	}
	r.lastAcked, r.ackedDrop = acked, false

	if r.m.fenced {
		if _, err := r.a.Ingest(r.ctx, modelTenantName, -1, r.oracle.st.Updates[:1]); !errors.Is(err, ErrQuarantined) {
			r.t.Fatalf("%s: ingest while fenced: %v", step, err)
		}
		for _, path := range []string{"/query/mincut", "/payload"} {
			if code := r.get("/v1/tenants/" + modelTenantName + path); code != http.StatusServiceUnavailable {
				r.t.Fatalf("%s: GET %s while fenced = %d, want 503", step, path, code)
			}
		}
		if r.fencedEp == nil {
			r.fencedEp = ep
		}
		if now := t.Snapshot(); now != r.fencedEp {
			r.t.Fatalf("%s: epoch pointer moved while fenced", step)
		}
		if t.Acked() != acked {
			r.t.Fatalf("%s: refused ops moved acked %d -> %d", step, acked, t.Acked())
		}
		return
	}
	r.fencedEp = nil
	sealed, pos, _, err := r.a.Payload(r.ctx, modelTenantName)
	if err != nil || pos != r.m.pos {
		r.t.Fatalf("%s: payload: pos %d (want %d) err %v", step, pos, r.m.pos, err)
	}
	if got, _ := DecodeSealed(sealed); !bytes.Equal(got, r.oracle.at(r.t, r.m.pos)) {
		r.t.Fatalf("%s: payload at %d is not oracle(%d)", step, pos, pos)
	}
	// The served epoch is a true point-in-time state: its bytes are the
	// oracle's at ITS position, however far the writer has moved on.
	ep.mu.Lock()
	epBytes, err := ep.Bundle.MarshalBinaryCompact()
	ep.mu.Unlock()
	if err != nil || !bytes.Equal(epBytes, r.oracle.at(r.t, ep.Pos)) {
		r.t.Fatalf("%s: epoch %d at pos %d is not oracle(%d) (err %v)", step, ep.Seq, ep.Pos, ep.Pos, err)
	}
}

// unchanged asserts a refused or failed op left every observable alone.
func (r *modelRun) unchanged(step string, before observed) {
	r.t.Helper()
	after := r.observe()
	if after != before {
		r.t.Fatalf("%s changed state: before %+v after %+v", step, before, after)
	}
}

func (r *modelRun) ingest(rightAt bool) string {
	k := 1 + r.rng.Intn(12)
	ups := r.oracle.st.Updates[r.m.pos : r.m.pos+k]
	at := r.m.pos
	if !rightAt {
		at += 1 + r.rng.Intn(5)
	}
	step := fmt.Sprintf("ingest(at=%d,k=%d)", at, k)
	before := r.observe()
	got, err := r.a.Ingest(r.ctx, modelTenantName, at, ups)
	switch {
	case r.m.fenced:
		if !errors.Is(err, ErrQuarantined) {
			r.t.Fatalf("%s on fenced tenant: %v", step, err)
		}
		r.unchanged(step, before)
	case !rightAt:
		if !errors.Is(err, ErrPositionConflict) || got != r.m.pos {
			r.t.Fatalf("%s: got %d err %v, want conflict at %d", step, got, err, r.m.pos)
		}
		r.unchanged(step, before)
	default:
		if err != nil || got != r.m.pos+k {
			r.t.Fatalf("%s: got %d err %v", step, got, err)
		}
		r.m.pos += k
	}
	return step
}

func (r *modelRun) ingestPeer() string {
	k := 1 + r.rng.Intn(20)
	r.ingestPeerK(k)
	return fmt.Sprintf("peer-ingest(k=%d)", k)
}

// ingestPeerK feeds the peer its next k updates.
func (r *modelRun) ingestPeerK(k int) {
	got, err := r.b.Ingest(r.ctx, modelTenantName, r.bpos, r.oracle.st.Updates[r.bpos:r.bpos+k])
	if err != nil || got != r.bpos+k {
		r.t.Fatalf("peer ingest: got %d err %v", got, err)
	}
	r.bpos += k
	r.bLog.appended(r.bpos, k, r.cfg.SnapshotEvery)
}

// peerLog models the peer's WAL as far as a log pull can see it: where its
// snapshot is, how many updates it has logged since (its SnapshotEvery
// counter), the record boundaries after the snapshot, and the end of a
// compacted record, if one is in the log.
type peerLog struct {
	snap, since int
	bounds      map[int]bool
	compactEnd  int
}

func newPeerLog() peerLog { return peerLog{bounds: map[int]bool{0: true}} }

// appended records one ingest on the peer ending at pos.
func (l *peerLog) appended(pos, k, snapshotEvery int) {
	if l.since += k; l.since >= snapshotEvery {
		*l = peerLog{snap: pos, bounds: map[int]bool{pos: true}}
		return
	}
	l.bounds[pos] = true
}

// gone names why the peer has no exact suffix from position from ("" when
// it has one).
func (l *peerLog) gone(from, bpos int) string {
	switch {
	case from > bpos:
		return "gone/ahead"
	case from < l.snap:
		return "gone/snapshot"
	case !l.bounds[from]:
		return "gone/boundary"
	case from < l.compactEnd:
		return "gone/compacted"
	}
	return ""
}

// compact compacts the peer's log, as DiskWAL.Compact does: its records
// become one coalesced record, which counts as compacted when it replays
// fewer updates than it spans.
func (r *modelRun) compactPeer() {
	t, err := r.b.Tenant(modelTenantName, false)
	if err != nil {
		r.t.Fatalf("peer tenant: %v", err)
	}
	if _, err := t.submit(r.ctx, op{reply: make(chan opResult, 1), fn: func(w *runtime.DiskWAL, _ *Bundle) error { return w.Compact() }}); err != nil {
		r.t.Fatalf("peer compact: %v", err)
	}
	l := &r.bLog
	if r.bpos == l.snap {
		return
	}
	co := (&stream.Stream{N: r.oracle.st.N, Updates: r.oracle.st.Updates[l.snap:r.bpos]}).Coalesce()
	l.bounds = map[int]bool{l.snap: true, r.bpos: true}
	if len(co.Updates) != r.bpos-l.snap {
		l.compactEnd = r.bpos
	}
}

// mergedPeer returns a fresh server whose tenant holds the stream's first
// from updates, then a merged payload (snapshotted at from), then k more
// updates: a peer whose log from `from` is exact, but whose state is not the
// prefix state the subject holds there.
func (r *modelRun) mergedPeer(from, k int) *Server {
	cfg := r.cfg
	cfg.Dir = r.t.TempDir()
	c := r.open(cfg)
	if from > 0 {
		if _, err := c.Ingest(r.ctx, modelTenantName, 0, r.oracle.st.Updates[:from]); err != nil {
			r.t.Fatalf("merged peer ingest: %v", err)
		}
	}
	other := NewBundle(cfg.Bundle)
	other.UpdateBatch([]stream.Update{{U: 0, V: 1, Delta: 1}})
	payload, err := other.MarshalBinaryCompact()
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := c.Merge(r.ctx, modelTenantName, SealPayload(payload)); err != nil {
		r.t.Fatalf("merged peer merge: %v", err)
	}
	if _, err := c.Ingest(r.ctx, modelTenantName, from, r.oracle.st.Updates[from:from+k]); err != nil {
		r.t.Fatalf("merged peer suffix: %v", err)
	}
	return c
}

// logPull pulls the peer's log from the subject's position — honest, with a
// body byte flipped and re-sealed, with a lying root ("lie"), after
// compacting the peer's log, or from a peer that merged at that position —
// and lands it.
func (r *modelRun) logPull(fault string) string {
	from := r.m.pos
	if from > r.bpos && fault != "merge" && r.rng.Intn(2) == 0 {
		// Half the time a peer that is behind first catches up past the
		// subject, with a record boundary at the subject's position.
		r.ingestPeerK(from - r.bpos)
		r.ingestPeerK(1 + r.rng.Intn(8))
	}
	peer, bpos := r.b, r.bpos
	switch fault {
	case "compacted":
		r.compactPeer()
	case "merge":
		k := 1 + r.rng.Intn(8)
		peer, bpos = r.mergedPeer(from, k), from+k
		defer peer.Kill()
	}
	step := fmt.Sprintf("log-pull(from=%d,peer=%d,fault=%q)", from, bpos, fault)
	sealed, pos, epoch, root, err := peer.LogSuffix(r.ctx, modelTenantName, from)
	want := ""
	if fault != "merge" {
		want = r.bLog.gone(from, bpos)
	}
	if want != "" {
		if !errors.Is(err, runtime.ErrNoSuffix) {
			r.t.Fatalf("%s: err %v, want ErrNoSuffix (%s)", step, err, want)
		}
		r.logCells[want]++
		return step
	}
	if err != nil || pos != bpos {
		r.t.Fatalf("%s: served pos %d err %v, want %d", step, pos, err, bpos)
	}
	switch fault {
	case "flip":
		payload, err := DecodeSealed(sealed)
		if err != nil {
			r.t.Fatal(err)
		}
		payload = bytes.Clone(payload)
		// Every byte of a short batch over 8 vertices is a one-byte varint
		// below 64: flipping 0x40 puts a vertex out of range, miscounts the
		// batch, or changes a delta.
		payload[r.rng.Intn(len(payload))] ^= 0x40
		sealed = SealPayload(payload)
	case "lie":
		root ^= 0xdeadbeef
	}

	before := r.observe()
	_, applied, err := r.a.installLog(r.ctx, modelTenantName, from, pos, epoch, root, sealed)
	switch {
	case r.m.fenced:
		if !errors.Is(err, ErrQuarantined) {
			r.t.Fatalf("%s on fenced tenant: applied %v err %v", step, applied, err)
		}
		r.unchanged(step, before)
	case fault == "flip" || (pos > from && (fault == "lie" || fault == "merge")):
		if err == nil || applied {
			r.t.Fatalf("%s: damaged suffix accepted", step)
		}
		if fault != "flip" && !errors.Is(err, ErrDigestMismatch) {
			r.t.Fatalf("%s: err %v, want ErrDigestMismatch", step, err)
		}
		r.unchanged(step, before)
		r.logCells["reject/"+fault]++
	case pos == from:
		if err != nil || applied {
			r.t.Fatalf("%s: empty suffix: applied %v err %v, want a skip", step, applied, err)
		}
		r.unchanged(step, before)
	default:
		if err != nil || !applied {
			r.t.Fatalf("%s: applied %v err %v", step, applied, err)
		}
		r.m.pos = pos
		r.logCells["applied"]++
	}
	return step
}

// install pulls the peer's payload — every bank, the banks that differ, or
// one too few of those — optionally damages it, and installs it.
func (r *modelRun) install(banked bool, fault string) string {
	var banks []int
	if banked {
		local, _, err := r.a.ManifestNow(r.ctx, modelTenantName, r.m.fenced)
		if err != nil {
			r.t.Fatalf("local manifest: %v", err)
		}
		peer, _, err := r.b.ManifestNow(r.ctx, modelTenantName, false)
		if err != nil {
			r.t.Fatalf("peer manifest: %v", err)
		}
		banks = local.Diff(peer)
		if banks == nil {
			banks = []int{}
		}
		if fault == "insufficient" {
			if len(banks) == 0 {
				fault = ""
			} else {
				banks = slices.Delete(banks, 0, 1)
			}
		}
	} else if fault == "insufficient" {
		fault = ""
	}
	sealed, q, epoch, root, err := r.b.PayloadBanks(r.ctx, modelTenantName, banks)
	if err != nil {
		r.t.Fatalf("peer payload: %v", err)
	}
	full := banks == nil || len(banks) == r.oracle.b.NumBanks()
	switch fault {
	case "flip":
		payload, err := DecodeSealed(sealed)
		if err != nil {
			r.t.Fatal(err)
		}
		payload = bytes.Clone(payload)
		payload[r.rng.Intn(len(payload))] ^= 0x40
		sealed = SealPayload(payload)
	case "root":
		root ^= 0xdeadbeef
	}
	cell := "banks/"
	if full {
		cell = "full/"
	}
	if r.m.fenced {
		cell += "fenced"
	} else {
		cell += "healthy"
	}
	step := fmt.Sprintf("install(%s,q=%d,fault=%q)", cell, q, fault)

	before := r.observe()
	_, applied, err := r.a.install(r.ctx, modelTenantName, q, epoch, root, sealed)
	switch {
	case !r.m.fenced && q <= r.m.pos:
		// Deduped by position before anything is looked at.
		if err != nil || applied {
			r.t.Fatalf("%s: applied %v err %v, want a skip", step, applied, err)
		}
		r.unchanged(step, before)
	case fault != "":
		if err == nil || applied {
			r.t.Fatalf("%s: damaged install accepted", step)
		}
		if fault == "root" && !errors.Is(err, ErrDigestMismatch) {
			r.t.Fatalf("%s: err %v, want ErrDigestMismatch", step, err)
		}
		if fault == "insufficient" && !errors.Is(err, ErrDeltaInsufficient) {
			r.t.Fatalf("%s: err %v, want ErrDeltaInsufficient", step, err)
		}
		r.unchanged(step, before)
	default:
		if err != nil || !applied {
			r.t.Fatalf("%s: applied %v err %v", step, applied, err)
		}
		r.ackedDrop = r.m.fenced
		r.m.pos, r.m.fenced, r.m.diskRot = q, false, false
		r.cells[cell]++
	}
	return step
}

// rot corrupts a live bank and the snapshot on disk and lets the scrubber
// find both: nothing local is trustworthy, so the tenant must be fenced.
func (r *modelRun) rot() string {
	if _, err := r.a.Flush(r.ctx, modelTenantName); err != nil {
		r.t.Fatalf("flush before rot: %v", err)
	}
	// The two lowest sparsifier levels: InjectBankRot synthesizes rot from
	// a handful of edges, and at N=8 none of them hashes to a high
	// subsampling level or to every log chunk.
	bank := r.rng.Intn(2)
	if err := r.a.InjectBankRot(r.ctx, modelTenantName, bank, r.rng.Uint64()); err != nil {
		r.t.Fatalf("inject rot: %v", err)
	}
	rotSnapshot(r.t, r.cfg.Dir, modelTenantName)
	rep, err := r.a.ScrubTenant(r.ctx, modelTenantName)
	if err != nil || !rep.Quarantined {
		r.t.Fatalf("scrub after rot: %+v err %v, want quarantined", rep, err)
	}
	r.m.fenced, r.m.diskRot = true, true
	return fmt.Sprintf("rot(bank=%d)", bank)
}

func (r *modelRun) flush() string {
	before := r.observe()
	_, err := r.a.Flush(r.ctx, modelTenantName)
	if r.m.fenced {
		if !errors.Is(err, ErrQuarantined) {
			r.t.Fatalf("flush on fenced tenant: %v", err)
		}
		r.unchanged("flush", before)
	} else if err != nil {
		r.t.Fatalf("flush: %v", err)
	}
	return "flush"
}

// reopen kills the subject in place and opens its directory again. The fence
// is memory only: what comes back is whatever the disk vouches for.
func (r *modelRun) reopen() string {
	r.a.Kill()
	r.a = r.open(r.cfg)
	r.fencedEp = nil
	if r.m.diskRot {
		// Corrupt at open: sidelined, empty, fenced.
		r.ackedDrop = true
		r.m = modelTenant{fenced: true}
	} else {
		r.m.fenced, r.m.seqFloor = false, 0
	}
	return "reopen"
}

// logFaults weights the log-pull op's variants: "" is an honest pull.
var logFaults = strings.Split(",,,,,,,,,,flip,flip,flip,flip,lie,lie,lie,compacted,compacted,compacted,compacted,merge,merge,merge,merge", ",")

func (r *modelRun) step() string {
	switch p := r.rng.Intn(125); {
	case p < 20:
		return r.ingest(true)
	case p < 27:
		return r.ingest(false)
	case p < 45:
		return r.ingestPeer()
	case p < 80:
		fault := ""
		if f := r.rng.Intn(10); f < 3 {
			fault = []string{"flip", "root", "insufficient"}[f]
		}
		return r.install(r.rng.Intn(2) == 0, fault)
	case p < 88:
		if r.m.fenced {
			return r.flush()
		}
		return r.rot()
	case p < 94:
		return r.flush()
	case p < 100:
		return r.reopen()
	default:
		return r.logPull(logFaults[p-100])
	}
}

// TestTenantStateMachine drives random op sequences from pinned seeds against
// the model and a real Server pair, comparing after every step.
func TestTenantStateMachine(t *testing.T) {
	const seeds, steps = 20, 60
	bcfg := modelBundleConfig()
	// One fixed stream for every seed; long enough that no run exhausts it.
	st := stream.GNP(bcfg.N, 0.5, 99).WithChurn(1200, 98)
	oracle := newPrefixOracle(bcfg, st)
	cells, logCells := map[string]int{}, map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := Config{
				Bundle:        bcfg,
				SnapshotEvery: 40,
				EpochEvery:    16,
				Fsync:         runtime.FsyncNever,
				QueryTimeout:  time.Minute,
			}
			r := &modelRun{t: t, rng: rand.New(rand.NewSource(seed)), oracle: oracle, cells: cells, logCells: logCells, bLog: newPeerLog(), ctx: context.Background()}
			r.cfg = cfg
			r.cfg.Dir = t.TempDir()
			r.a = r.open(r.cfg)
			cfg.Dir = t.TempDir()
			r.b = r.open(cfg)
			r.check("open")
			for i := 0; i < steps; i++ {
				r.check(fmt.Sprintf("step %d %s", i, r.step()))
			}
		})
	}
	for _, cell := range []string{"full/healthy", "full/fenced", "banks/healthy", "banks/fenced"} {
		if cells[cell] == 0 {
			t.Errorf("install cell %s never applied: %v", cell, cells)
		}
	}
	t.Logf("installs applied per cell: %v", cells)
	for _, cell := range []string{"applied", "reject/flip", "reject/lie", "reject/merge", "gone/snapshot", "gone/boundary", "gone/compacted", "gone/ahead"} {
		if logCells[cell] == 0 {
			t.Errorf("log-pull outcome %s never seen: %v", cell, logCells)
		}
	}
	t.Logf("log-pull outcomes: %v", logCells)
}
