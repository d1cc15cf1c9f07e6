// Package service is the concurrent multi-tenant sketch service: a
// registry of tenant bundles, each fed by a single-writer ingest loop with
// a bounded queue, durable through a disk-backed WAL, and queryable
// against epoch-cloned snapshots that never block ingest. Everything in
// the service leans on AGM linearity: durable replay is bit-identical to
// the lost state, epoch clones are true point-in-time copies, and re-feeds
// from the durable position are exact, not approximate.
package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"graphsketch"
	"graphsketch/internal/core/spanner"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/hashing"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// BundleConfig fixes a tenant's sketch shape. Every replica (and every
// recovery) must use the same config — the compact payload pins it so a
// mismatched merge fails loudly instead of aliasing hash space.
type BundleConfig struct {
	// N is the vertex universe size.
	N int `json:"n"`
	// K is Fig 1's min-cut threshold, read off the sparsifier's first K
	// forests per level: in [1, k], k the sparsifier's forest count (>= 6).
	K int `json:"k"`
	// Eps is the sparsifier's accuracy parameter.
	Eps float64 `json:"eps"`
	// SpannerK is the Baswana–Sen stretch parameter (spanner queries build
	// a (2k-1)-spanner from the bundle's coalesced update log).
	SpannerK int `json:"spanner_k"`
	// Seed derives all hash functions.
	Seed uint64 `json:"seed"`
}

// DefaultBundleConfig sizes a bundle for interactive use on n vertices.
func DefaultBundleConfig(n int, seed uint64) BundleConfig {
	return BundleConfig{N: n, K: 6, Eps: 1.0, SpannerK: 2, Seed: seed}
}

// Bundle is one tenant's sketch state: a cut sparsifier, whose nested
// levels also answer the min cut, and a coalesced update log for
// multi-pass spanner construction. It implements runtime.Sketch, so the WAL
// machinery recovers it bit-identically, plus Clone for epoch snapshots and
// Footprint for budget accounting.
type Bundle struct {
	cfg BundleConfig
	sp  *sparsify.Simple
	// spLog is the coalesced live edge set as a replayable stream — the
	// Baswana–Sen construction is r-adaptive (multi-pass), so it cannot run
	// off a linear sketch alone. Appends accumulate and re-coalesce once
	// the log doubles, keeping it O(live edges), not O(stream length).
	spLog     []stream.Update
	coalesced int // prefix length known coalesced
	// logDig is each log chunk's maintained linear digest (see
	// logDigests). Coalescing only regroups an edge's deltas, so it leaves
	// the digest unchanged and Manifest reads it as is.
	logDig [logBankCount]uint64

	// sketchBytes is the resident size of sp. The config fixes it: its
	// arenas are shared-mode (cell arrays, hash state and power tables all
	// sized and built at construction), so no update, merge or install
	// moves it and ResidentBytes never has to read a cell.
	sketchBytes int64
	// cloned marks a Clone since the last UpdateBatch, so the arenas may be
	// shared with it. The next UpdateBatch copies the arenas it writes as it
	// writes them, then takes its own copy of all the others (ownArenas):
	// the batches of one epoch write every arena between them, and leaving
	// those copies to later small batches would land them level by level,
	// one goroutine per level, across many ops.
	cloned bool
	// spanners is the tenant's spanner builder pool: NewBundle makes it and
	// every Clone shares it, so each epoch's cold spanner query reuses one
	// builder's arenas instead of allocating them.
	spanners *spannerPool
}

// spannerPool keeps one idle Baswana–Sen builder for a bundle shape's
// (N, SpannerK, Seed). A build takes the idle builder, or makes one if
// another build holds it, and puts it back when it returns; a second
// builder finishing while the slot is full is dropped, so a tenant retains
// at most one. No lock is held across a build, and a build that panics
// never returns its builder. Reuse is bit-identical to a fresh builder
// (every pass reseeds and zeroes the arenas it sweeps).
type spannerPool struct {
	idle atomic.Pointer[spanner.BSBuilder]
}

// build runs the Baswana–Sen construction of st on a pooled builder.
func (p *spannerPool) build(cfg BundleConfig, st *stream.Stream) spanner.BSResult {
	bld := p.idle.Swap(nil)
	if bld == nil {
		bld = spanner.NewBSBuilder(cfg.N, cfg.SpannerK, cfg.Seed)
	}
	res := bld.Build(st)
	p.idle.CompareAndSwap(nil, bld)
	return res
}

// sparsifierConfig is the shape of the bundle's sparsifier.
func (c BundleConfig) sparsifierConfig() sparsify.SimpleConfig {
	return sparsify.SimpleConfig{N: c.N, Epsilon: c.Eps, Seed: c.Seed}
}

// check reports a K the sparsifier's forests cannot serve.
func (c BundleConfig) check() error {
	if k := c.sparsifierConfig().Filled().KForests; c.K < 1 || c.K > k {
		return fmt.Errorf("service: min-cut threshold K=%d outside [1, %d], the sparsifier's forest count", c.K, k)
	}
	return nil
}

// NewBundle creates an empty bundle with the given shape. It panics on a
// config that fails check; NewServer refuses one with an error.
func NewBundle(cfg BundleConfig) *Bundle {
	if err := cfg.check(); err != nil {
		panic(err)
	}
	b := &Bundle{
		cfg:      cfg,
		sp:       sparsify.NewSimple(cfg.sparsifierConfig()),
		spanners: &spannerPool{},
	}
	// An empty sketch: the occupancy-guided footprint walk touches no cell.
	b.sketchBytes = b.sp.Footprint().ResidentBytes
	return b
}

// Config returns the bundle's shape.
func (b *Bundle) Config() BundleConfig { return b.cfg }

// UpdateBatch applies one batch to the sparsifier and the spanner log. The
// sparsifier fans its levels out across GOMAXPROCS goroutines (one owner
// per level), so the cells are the ones a one-goroutine pass would write.
// The first batch after a Clone also copies every arena the clone shares.
func (b *Bundle) UpdateBatch(ups []stream.Update) {
	if len(ups) == 0 {
		return
	}
	b.sp.UpdateBatch(ups)
	if b.cloned {
		b.ownArenas()
	}
	b.appendLog(ups)
}

// updateVerified applies ups and keeps them only if the manifest root then
// equals root; otherwise it undoes them and returns ErrDigestMismatch. It
// returns the undo for a caller whose next step (making the batch durable)
// can still fail. The undo is exact: the sketches are linear, so the negated
// batch returns every cell and maintained digest to its old value, and the
// spanner log is put back as it was. A delta of math.MinInt64 has no
// negation; decodeLogSuffix refuses one.
func (b *Bundle) updateVerified(ups []stream.Update, root uint64) (undo func(), err error) {
	spLog, coalesced, logDig := slices.Clone(b.spLog), b.coalesced, b.logDig
	b.UpdateBatch(ups)
	undo = func() {
		neg := make([]stream.Update, len(ups))
		for i, u := range ups {
			neg[i] = stream.Update{U: u.U, V: u.V, Delta: -u.Delta}
		}
		b.sp.UpdateBatch(neg)
		b.spLog, b.coalesced, b.logDig = spLog, coalesced, logDig
	}
	if got := b.manifest().Root(); got != root {
		undo()
		return nil, fmt.Errorf("service: log suffix leads to root %016x, the peer served %016x: %w", got, root, ErrDigestMismatch)
	}
	return undo, nil
}

// appendLog appends a batch to the spanner log, moving its chunks' digests.
func (b *Bundle) appendLog(ups []stream.Update) {
	b.logDig = addDigests(b.logDig, b.logDigests(ups))
	b.spLog = append(b.spLog, ups...)
	if len(b.spLog) >= 64 && len(b.spLog) >= 2*b.coalesced {
		b.coalesceLog()
	}
}

// coalesceLog rewrites the spanner log as the sorted net edge set.
func (b *Bundle) coalesceLog() {
	if b.coalesced == len(b.spLog) {
		return
	}
	co := (&stream.Stream{N: b.cfg.N, Updates: b.spLog}).Coalesce()
	b.spLog = co.Updates
	b.coalesced = len(co.Updates)
}

// Clone copies the bundle — the epoch-snapshot primitive. The sketch arenas
// are shared copy-on-write (sketchcore.Arena.Clone), so a clone costs
// O(arenas) plus the spanner log; the next UpdateBatch of either side
// copies them all, any other write only the arenas it writes. A clone that no
// write follows copies nothing. Queries against the clone never block (or
// observe) ingest. The maintained digests travel with the cells they
// describe. Clone marks b's arenas shared, so it is a write to b.
func (b *Bundle) Clone() *Bundle {
	b.cloned = true
	return &Bundle{
		cloned:      true,
		cfg:         b.cfg,
		sp:          b.sp.Clone(),
		spLog:       append([]stream.Update(nil), b.spLog...),
		coalesced:   b.coalesced,
		logDig:      b.logDig,
		sketchBytes: b.sketchBytes,
		spanners:    b.spanners,
	}
}

// ownArenas gives every sketch arena its own cells (sketchcore.Arena.Own),
// one goroutine per sketch bank.
func (b *Bundle) ownArenas() {
	b.cloned = false
	sketchcore.ForkJoin(b.sp.NumBanks(), 0, func(id int) {
		for _, a := range b.sp.BankArenas(id) {
			a.Own()
		}
	})
}

// MinCut estimates the global min cut from the bundle's epoch state: Fig
// 1's scan at threshold K over the sparsifier's levels, reading each
// level's witness off its first K forests (sparsify.Simple.MinCut).
func (b *Bundle) MinCut() (graphsketch.MinCutResult, error) { return b.sp.MinCut(b.cfg.K) }

// Sparsify recovers the cut sparsifier's graph.
func (b *Bundle) Sparsify() (*graphsketch.Graph, error) { return b.sp.Sparsify() }

// Spanner builds a (2k-1)-spanner from the coalesced update log, on a
// builder from the tenant's pool. The log's vertex range is validated here,
// not at decode time: a merged payload vouches for its own section, and
// this is the deliberate corrupt-payload fixture the service's
// panic-isolation middleware is tested against.
func (b *Bundle) Spanner() graphsketch.SpannerResult {
	// Range-check before coalescing: the edge-index round-trip inside
	// Coalesce is only a bijection on in-range vertices, so an out-of-range
	// entry must be caught while it is still recognizable.
	for _, u := range b.spLog {
		if u.U < 0 || u.U >= b.cfg.N || u.V < 0 || u.V >= b.cfg.N {
			panic(fmt.Sprintf("service: corrupt spanner log: vertex (%d,%d) out of range [0,%d)", u.U, u.V, b.cfg.N))
		}
	}
	b.coalesceLog()
	r := b.spanners.build(b.cfg, &stream.Stream{N: b.cfg.N, Updates: b.spLog})
	return graphsketch.SpannerResult{
		Spanner: r.Spanner, Passes: r.Passes, StretchBound: float64(r.StretchBound),
		PhaseNanos: r.PhaseNanos, PlanEdges: r.PlanEdges,
	}
}

// Footprint is the sparsifier's resident/wire size plus the spanner log (24
// bytes per buffered update).
func (b *Bundle) Footprint() graphsketch.Footprint {
	fp := b.sp.Footprint()
	fp.ResidentBytes += int64(len(b.spLog)) * 24
	return fp
}

// ResidentBytes is the budget-accounting scalar (admission control and
// evict-coldest run on it): Footprint().ResidentBytes in O(1), because the
// writer refreshes it after every op.
func (b *Bundle) ResidentBytes() int64 { return b.sketchBytes + int64(len(b.spLog))*24 }

// ---------------------------------------------------------------------------
// Banked payload (v3) and the digest tree
// ---------------------------------------------------------------------------
//
// A bundle's wire state decomposes into an ordered list of BANKS, the unit
// the digest tree and delta anti-entropy address:
//
//	[0, spBanks)                 sparsifier sampling levels, compact
//	[spBanks, +logBankCount)     spanner-log chunks keyed by
//	                             EdgeIndex(u,v,N) % logBankCount
//
// Sketch banks are headerless tagged cell states (AppendBankState); log
// chunks are uvarint count + (u, v, zigzag delta) triples over the
// COALESCED log, so every bank encoding is canonical for its state. The
// payload is:
//
//	config header  5 uvarints (N, K, Eps bits, SpannerK, Seed)
//	layout         uvarint payloadLayout
//	totalBanks     uvarint
//	presentCount   uvarint
//	present        presentCount × { id uvarint, len uvarint, bytes }
//	manifest       GSD2 over ALL totalBanks banks
//
// A full payload carries every bank (snapshots, /payload, sync installs); a
// delta payload carries only the banks a peer asked for, but always the
// full manifest — the receiver verifies every present bank against its
// leaf, and every absent bank against its own leaf, before trusting a
// bank-granular install.
//
// A leaf is linear in its bank's state, not a hash of its bytes: a sketch
// bank's is the fold of its arenas' sketchcore.Digest, a log chunk's the
// sum over its entries of delta * R(edge) mod 2^64. Every write keeps them
// current, so Manifest sums about 900 per-arena accumulators and reads
// eight chunk sums — it never encodes a bank.
//
// v2 had no layout field and carried a separate min-cut stack's levels
// ahead of the sparsifier's; its bank count (at least 14) sits where the
// layout now is, so a v2 payload is refused with ErrBadEncoding.

// payloadLayout versions the banked payload.
const payloadLayout = 3

// ErrDigestMismatch reports state bytes that contradict a digest-tree
// leaf — silent corruption, never a crash artifact (those are torn tails).
var ErrDigestMismatch = fmt.Errorf("service: digest mismatch")

// ErrDeltaInsufficient reports a delta payload that cannot reconstruct the
// sender's state (local divergence outside the carried banks, or the
// assembled root disagreeing). The remedy is a full-payload pull.
var ErrDeltaInsufficient = fmt.Errorf("service: delta payload insufficient")

// logBankCount is the spanner-log chunk fan-out. Eight chunks keeps any
// single log bank's share of the payload small (the delta-repair unit)
// without fragmenting tiny logs into empty sections.
const logBankCount = 8

// logChunk keys an update to its log bank by canonical edge index.
func logChunk(u stream.Update, n int) int {
	return int(stream.EdgeIndex(u.U, u.V, n) % logBankCount)
}

// logDigestKey separates the log multipliers from every other seed
// derivation.
const logDigestKey = 0x10c

// logDigests returns the digest terms of ups summed per log chunk: delta *
// R(edge) mod 2^64, with R odd and derived from the config seed and the
// canonical edge index. Self-loops are skipped, as coalescing drops them.
// Summed deltas wrap in int64 exactly as these terms wrap in uint64, so a
// chunk's digest is the same before and after coalescing.
func (b *Bundle) logDigests(ups []stream.Update) (dig [logBankCount]uint64) {
	seed := hashing.DeriveSeed(b.cfg.Seed, logDigestKey)
	for _, u := range ups {
		if u.U == u.V {
			continue
		}
		idx := stream.EdgeIndex(u.U, u.V, b.cfg.N)
		dig[idx%logBankCount] += uint64(u.Delta) * (hashing.DeriveSeed(seed, idx) | 1)
	}
	return dig
}

// addDigests adds chunk digests elementwise.
func addDigests(a, b [logBankCount]uint64) [logBankCount]uint64 {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// NumBanks reports the bundle's digest-tree width: the sparsifier's level
// banks, then the log chunks. A level bank's digest is the sum of its
// arenas' (sketchcore.SumDigests for the maintained one, ScanDigests for
// the one read off the cells).
func (b *Bundle) NumBanks() int {
	return b.sp.NumBanks() + logBankCount
}

// appendBank appends bank id's canonical bytes. The spanner log must
// already be coalesced when a log bank is encoded.
func (b *Bundle) appendBank(buf []byte, id int) ([]byte, error) {
	if id < 0 || id >= b.NumBanks() {
		return nil, fmt.Errorf("service: bank %d out of [0,%d): %w", id, b.NumBanks(), wire.ErrBadEncoding)
	}
	if id < b.sp.NumBanks() {
		return b.sp.AppendBankState(buf, id)
	}
	ups := make([]stream.Update, 0, len(b.spLog)/logBankCount+1)
	for _, u := range b.spLog {
		if logChunk(u, b.cfg.N) == id-b.sp.NumBanks() {
			ups = append(ups, u)
		}
	}
	return stream.AppendBatch(buf, ups), nil
}

// decodeLogBank inverts the log-chunk encoding, consuming data fully.
func decodeLogBank(data []byte) ([]stream.Update, error) {
	ups, rest, err := stream.DecodeBatch(data)
	if err != nil {
		return nil, fmt.Errorf("service: log bank: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("service: log bank trailing bytes: %w", wire.ErrBadEncoding)
	}
	return ups, nil
}

// leaves returns every bank's digest in bank order: sketch banks read
// through digest (maintained or scanned) over their arenas, one goroutine
// per bank, log chunks from logDig.
func (b *Bundle) leaves(digest func([]*sketchcore.Arena) sketchcore.Digest, logDig [logBankCount]uint64) []sketchcore.Digest {
	out := make([]sketchcore.Digest, b.NumBanks())
	nsk := b.sp.NumBanks()
	sketchcore.ForkJoin(nsk, 0, func(id int) { out[id] = digest(b.sp.BankArenas(id)) })
	for c, w := range logDig {
		out[nsk+c] = sketchcore.Digest{W: w}
	}
	return out
}

// Manifest returns the bundle's current digest tree (a copy; callers may
// hold it across further updates). It folds the maintained leaves: O(banks
// × arenas), independent of the state and of what changed since the last
// call. The error is always nil; the signature is kept for the callers
// outside this package that compile against it.
func (b *Bundle) Manifest() (wire.Manifest, error) {
	return b.manifest(), nil
}

// manifest is Manifest without the error it never returns.
func (b *Bundle) manifest() wire.Manifest {
	dig := b.leaves(sketchcore.SumDigests, b.logDig)
	man := wire.Manifest{Banks: make([]uint64, len(dig))}
	for id, d := range dig {
		man.Banks[id] = d.Fold()
	}
	return man
}

// VerifyDigests is the scrubber's live-state check: recompute EVERY bank's
// digest from its cells (and every log chunk's from the log) and compare it
// with the maintained leaf. No write path can make them differ, so a
// mismatch means the in-memory state rotted behind the bundle's back.
// Returns ErrDigestMismatch (wrapped) naming the first diverged bank; the
// maintained leaves are left untouched so repair logic can still read the
// pre-rot manifest.
func (b *Bundle) VerifyDigests() error {
	kept := b.leaves(sketchcore.SumDigests, b.logDig)
	scanned := b.leaves(sketchcore.ScanDigests, b.logDigests(b.spLog))
	for id := range kept {
		if scanned[id] != kept[id] {
			return fmt.Errorf("service: bank %d digest mismatch (state %016x, maintained %016x): %w",
				id, scanned[id].Fold(), kept[id].Fold(), ErrDigestMismatch)
		}
	}
	return nil
}

// RecomputeDigests resets every maintained leaf to the one recomputed from
// the live state. The repair path uses it so the local manifest reflects
// rotted reality before diffing against a peer's — a maintained pre-rot
// leaf would hide exactly the bank that needs pulling.
func (b *Bundle) RecomputeDigests() {
	sketchcore.ForkJoin(b.sp.NumBanks(), 0, func(id int) {
		for _, a := range b.sp.BankArenas(id) {
			a.RescanDigest()
		}
	})
	b.logDig = b.logDigests(b.spLog)
}

// header is the payload's leading uvarints: the config, then the layout.
func (b *Bundle) header() []uint64 {
	return []uint64{uint64(b.cfg.N), uint64(b.cfg.K), math.Float64bits(b.cfg.Eps), uint64(b.cfg.SpannerK), b.cfg.Seed, payloadLayout}
}

// appendConfigHeader writes the config header and the layout.
func (b *Bundle) appendConfigHeader(buf []byte) []byte {
	for _, v := range b.header() {
		buf = wire.AppendUvarint(buf, v)
	}
	return buf
}

// MarshalBanks encodes a banked payload carrying the requested banks (ids
// ascending, duplicates ignored) plus the full manifest. nil asks for every
// bank — the full payload MarshalBinaryCompact returns. The banks encode
// concurrently, each into its own buffer, and are joined in bank order.
func (b *Bundle) MarshalBanks(ids []int) ([]byte, error) {
	total := b.NumBanks()
	want := make([]bool, total)
	present := 0
	if ids == nil {
		for i := range want {
			want[i] = true
		}
		present = total
	}
	for _, id := range ids {
		if id < 0 || id >= total {
			return nil, fmt.Errorf("service: bank %d out of [0,%d): %w", id, total, wire.ErrBadEncoding)
		}
		if !want[id] {
			want[id] = true
			present++
		}
	}
	b.coalesceLog()
	order := make([]int, 0, present)
	for id, ok := range want {
		if ok {
			order = append(order, id)
		}
	}
	banks := make([][]byte, len(order))
	errs := make([]error, len(order))
	sketchcore.ForkJoin(len(order), 0, func(i int) { banks[i], errs[i] = b.appendBank(nil, order[i]) })
	size := 0
	for i, bankB := range banks {
		if errs[i] != nil {
			return nil, errs[i]
		}
		size += 2*binary.MaxVarintLen64 + len(bankB)
	}
	out := b.appendConfigHeader(make([]byte, 0, 9*binary.MaxVarintLen64+size+24+8*total))
	out = wire.AppendUvarint(out, uint64(total))
	out = wire.AppendUvarint(out, uint64(present))
	for i, bankB := range banks {
		out = wire.AppendUvarint(out, uint64(order[i]))
		out = wire.AppendUvarint(out, uint64(len(bankB)))
		out = append(out, bankB...)
	}
	return wire.AppendManifest(out, b.manifest()), nil
}

// MarshalBinaryCompact encodes the full banked payload: config header,
// every bank, and the digest manifest. The encoding is canonical (sketch
// banks marshal canonically, the log is coalesced and sorted first), which
// is what makes bit-identity assertions meaningful end to end.
func (b *Bundle) MarshalBinaryCompact() ([]byte, error) {
	return b.MarshalBanks(nil)
}

// bundlePayload is a decoded banked payload: which banks are present (by
// id, bytes aliasing the input) and the full manifest. The banks are not
// yet checked against their leaves; that happens as they are folded.
type bundlePayload struct {
	total   int
	present map[int][]byte
	man     wire.Manifest
}

// decodePayload validates a banked payload's framing against this bundle's
// config and shape. Corruption in the framing — config mismatch, bank out
// of order, a manifest that fails its own root check, trailing bytes —
// errors without touching bundle state.
func (b *Bundle) decodePayload(data []byte) (*bundlePayload, error) {
	for _, wantV := range b.header() {
		got, rest, err := wire.Uvarint(data)
		if err != nil {
			return nil, fmt.Errorf("service: bundle header: %w", err)
		}
		if got != wantV {
			return nil, fmt.Errorf("service: bundle config or layout mismatch (%d != %d): %w", got, wantV, wire.ErrBadEncoding)
		}
		data = rest
	}
	total, data, err := wire.Uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("service: bundle bank count: %w", err)
	}
	if total != uint64(b.NumBanks()) {
		return nil, fmt.Errorf("service: bundle has %d banks, want %d: %w", total, b.NumBanks(), wire.ErrBadEncoding)
	}
	presentCount, data, err := wire.Uvarint(data)
	if err != nil || presentCount > total {
		return nil, fmt.Errorf("service: bundle present count: %w", wire.ErrBadEncoding)
	}
	p := &bundlePayload{total: int(total), present: make(map[int][]byte, presentCount)}
	prev := -1
	for i := uint64(0); i < presentCount; i++ {
		id, rest, err := wire.Uvarint(data)
		if err != nil {
			return nil, fmt.Errorf("service: bundle bank id: %w", err)
		}
		if int64(id) <= int64(prev) || id >= total {
			return nil, fmt.Errorf("service: bundle bank ids not ascending: %w", wire.ErrBadEncoding)
		}
		prev = int(id)
		n, rest, err := wire.Uvarint(rest)
		if err != nil || n > uint64(len(rest)) {
			return nil, fmt.Errorf("service: bundle bank %d length: %w", id, wire.ErrBadEncoding)
		}
		p.present[int(id)] = rest[:n]
		data = rest[n:]
	}
	p.man, data, err = wire.DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("service: bundle manifest: %w", err)
	}
	if len(p.man.Banks) != p.total {
		return nil, fmt.Errorf("service: bundle manifest covers %d banks, want %d: %w", len(p.man.Banks), p.total, wire.ErrBadEncoding)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("service: bundle trailing bytes: %w", wire.ErrBadEncoding)
	}
	return p, nil
}

// foldBanks folds every bank present in p into b (foldBank). The sketch
// banks fan out across goroutines, one owner per bank; the log chunks share
// spLog and logDig, so they fold after the join, on the calling goroutine.
// The error is the lowest-numbered failing bank's, the one a sequential
// fold would stop at. On error b holds a partial fold; callers fold into a
// bundle they can throw away.
func (b *Bundle) foldBanks(p *bundlePayload, replace bool) error {
	nsk := b.sp.NumBanks()
	var ids []int
	for id := 0; id < nsk; id++ {
		if _, ok := p.present[id]; ok {
			ids = append(ids, id)
		}
	}
	b.sp.Invalidate()
	errs := make([]error, len(ids))
	sketchcore.ForkJoin(len(ids), 0, func(i int) { errs[i] = b.foldBank(p, ids[i], replace) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for id := nsk; id < p.total; id++ {
		if _, ok := p.present[id]; ok {
			if err := b.foldBank(p, id, replace); err != nil {
				return err
			}
		}
	}
	return nil
}

// foldBank merges (or, with replace, installs) payload bank id into b and
// checks the digest of what it read against the payload's leaf, so the
// bytes are decoded once for both. A bank whose bytes do not decode
// contradicts its leaf as surely as one that decodes to other cells: the
// error is ErrDigestMismatch either way, and also ErrBadEncoding when
// decoding failed. A sketch bank writes only its own arenas (the caller
// drops the sparsifier's decode cache), so distinct sketch banks may fold
// concurrently.
func (b *Bundle) foldBank(p *bundlePayload, id int, replace bool) error {
	bankB := p.present[id]
	var got sketchcore.Digest
	var err error
	nsk := b.sp.NumBanks()
	switch {
	case id < nsk && replace:
		err = b.sp.ReplaceBankState(id, bankB)
		got = sketchcore.SumDigests(b.sp.BankArenas(id))
	case id < nsk:
		// The digest is linear: what the merge read is what it added.
		before := sketchcore.SumDigests(b.sp.BankArenas(id))
		err = b.sp.MergeBankState(id, bankB)
		got = sketchcore.SumDigests(b.sp.BankArenas(id)).Sub(before)
	default:
		idx := id - nsk
		var ups []stream.Update
		if ups, err = decodeLogBank(bankB); err == nil {
			dig := b.logDigests(ups)
			for _, w := range dig {
				got.W += w
			}
			if replace {
				kept := b.spLog[:0]
				for _, u := range b.spLog {
					if logChunk(u, b.cfg.N) != idx {
						kept = append(kept, u)
					}
				}
				b.spLog = kept
				b.logDig[idx] = 0
			}
			b.spLog = append(b.spLog, ups...)
			b.logDig = addDigests(b.logDig, dig)
			b.coalesced = 0
		}
	}
	if err != nil {
		return fmt.Errorf("service: bundle bank %d: %w: %w", id, ErrDigestMismatch, err)
	}
	if got.Fold() != p.man.Banks[id] {
		return fmt.Errorf("service: bundle bank %d bytes contradict manifest: %w", id, ErrDigestMismatch)
	}
	return nil
}

// MergeBytes folds an encoded FULL bundle payload into this one (linear:
// sketch states add, spanner logs concatenate and re-coalesce). The config
// header must match exactly, every bank must be present and match its
// manifest leaf. The log banks' vertex range is deliberately trusted here
// and checked at Spanner() time — see there.
//
// All or nothing: a bank that fails to decode or to match its leaf leaves
// the bundle as it was. The fold is staged on a clone and swapped in.
func (b *Bundle) MergeBytes(data []byte) error {
	next, err := b.merged(data)
	if err != nil {
		return err
	}
	*b = *next
	return nil
}

// merged is MergeBytes without the swap: it returns the folded bundle and
// leaves b's state as it was.
func (b *Bundle) merged(data []byte) (*Bundle, error) {
	p, err := b.decodePayload(data)
	if err != nil {
		return nil, err
	}
	return b.mergePayload(p)
}

func (b *Bundle) mergePayload(p *bundlePayload) (*Bundle, error) {
	if len(p.present) != p.total {
		return nil, fmt.Errorf("service: merge needs a full payload (%d/%d banks): %w", len(p.present), p.total, wire.ErrBadEncoding)
	}
	next := b.Clone()
	if err := next.foldBanks(p, false); err != nil {
		return nil, err
	}
	return next, nil
}

// InstallBanks replace-installs a banked payload: present banks overwrite
// the local ones; absent banks keep their local bytes, which is only sound
// when those bytes are already identical to the sender's — enforced by
// requiring every absent bank's CURRENT local leaf to equal the payload
// manifest's. After installing, the assembled state's root must equal the
// payload root, or the install is rolled back (clone-and-swap) with
// ErrDeltaInsufficient — the caller falls back to a full pull.
func (b *Bundle) InstallBanks(data []byte) error {
	next, _, err := b.assemble(data, false)
	if err != nil {
		return err
	}
	*b = *next
	return nil
}

// replaceBanks overwrites the receiver's banks with p's present ones and
// requires the result to reproduce p's root. In place: the receiver is a
// clone assemble throws away on error.
func (b *Bundle) replaceBanks(p *bundlePayload) error {
	if err := b.foldBanks(p, true); err != nil {
		return err
	}
	if got := b.manifest(); got.Root() != p.man.Root() {
		return fmt.Errorf("service: assembled state root %x != payload root %x: %w", got.Root(), p.man.Root(), ErrDeltaInsufficient)
	}
	return nil
}

// assemble builds the state a peer's payload describes, as a new bundle; of
// b only the maintained leaves may change (rebuilt, never the state). The
// present banks are replace-installed on a clone of b, which shares b's hash
// state and copies none of its cells: a replaced arena takes fresh ones.
// What must hold first is read off the payload, not asked of the caller:
//
//   - a full payload (every bank present) replaces every bank, so nothing
//     of b's state survives and nothing needs checking;
//   - a bank payload keeps b's absent banks, so every ABSENT bank's current
//     leaf in b must equal the peer's (checked before the clone: an
//     insufficient delta costs a manifest). rebuildLeaves first recomputes
//     b's leaves from its state, so that check sees b's bytes as they are
//     now; a tenant whose bytes are suspect needs that, a healthy one does
//     not pay for it.
//
// full reports which it was. Every present bank has been checked against its
// manifest leaf either way; checking the result against a root advertised
// out of band is the caller's.
func (b *Bundle) assemble(data []byte, rebuildLeaves bool) (next *Bundle, full bool, err error) {
	p, err := b.decodePayload(data)
	if err != nil {
		return nil, false, err
	}
	full = len(p.present) == p.total
	if !full {
		if rebuildLeaves {
			b.RecomputeDigests()
		}
		local := b.manifest()
		for id := 0; id < p.total; id++ {
			if _, ok := p.present[id]; !ok && local.Banks[id] != p.man.Banks[id] {
				return nil, false, fmt.Errorf("service: bank %d diverges locally but is absent from delta payload: %w", id, ErrDeltaInsufficient)
			}
		}
	}
	next = b.Clone()
	return next, full, next.replaceBanks(p)
}

// InjectBankRot deterministically corrupts one bank's live in-memory state
// WITHOUT moving its maintained digest — the chaos hook the scrub tests and
// the sim's bit-rot matrix use to model silent memory rot. It must bypass
// every maintained write path (sketchcore.WithoutDigest around a bank
// merge, a raw log append), or the digest would absorb the rot and no
// scrub could see it. Sketch banks absorb a
// synthetic nonzero single-edge state (linearity keeps the bytes decodable
// while guaranteeing the canonical encoding changes); log chunks gain a
// phantom update keyed to the chunk.
func (b *Bundle) InjectBankRot(bank int, seed uint64) error {
	if bank < 0 || bank >= b.NumBanks() {
		return fmt.Errorf("service: bank %d out of [0,%d): %w", bank, b.NumBanks(), wire.ErrBadEncoding)
	}
	if idx := bank - b.sp.NumBanks(); idx >= 0 {
		for i := uint64(0); ; i++ {
			u := stream.Update{U: int((seed + i) % uint64(b.cfg.N)), V: int((seed + i + 1) % uint64(b.cfg.N)), Delta: 1}
			if u.U != u.V && logChunk(u, b.cfg.N) == idx {
				b.spLog = append(b.spLog, u)
				b.coalesced = 0
				return nil
			}
		}
	}
	// Feed synthetic edges into a scratch bundle until the target bank's
	// state is nonzero (an update only reaches subsampling level l with
	// probability 2^-l, so high banks need a few tries), then fold exactly
	// that bank into b.
	emptyB, err := NewBundle(b.cfg).appendBank(nil, bank)
	if err != nil {
		return err
	}
	tmp := NewBundle(b.cfg)
	for i := 0; i < 1<<14; i++ {
		u := int((seed + uint64(i)) % uint64(b.cfg.N))
		v := (u + 1 + i%(b.cfg.N-1)) % b.cfg.N
		if u == v {
			continue
		}
		tmp.sp.UpdateBatch([]stream.Update{{U: u, V: v, Delta: 1}})
		bankB, err := tmp.appendBank(nil, bank)
		if err != nil {
			return err
		}
		if !bytes.Equal(bankB, emptyB) {
			b.sp.Invalidate()
			return sketchcore.WithoutDigest(b.sp.BankArenas(bank), func() error { return b.sp.MergeBankState(bank, bankB) })
		}
	}
	return fmt.Errorf("service: could not synthesize rot for bank %d", bank)
}
