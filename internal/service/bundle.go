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
	"fmt"
	"math"

	"graphsketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// BundleConfig fixes a tenant's sketch shape. Every replica (and every
// recovery) must use the same config — the compact payload pins it so a
// mismatched merge fails loudly instead of aliasing hash space.
type BundleConfig struct {
	// N is the vertex universe size.
	N int `json:"n"`
	// K is the min-cut sketch's edge-connectivity bound (NewMinCutSketchK).
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

// Bundle is one tenant's sketch state: a min-cut sketch, a cut sparsifier,
// and a coalesced update log for multi-pass spanner construction. It
// implements runtime.Sketch, so the WAL machinery recovers it
// bit-identically, plus Clone for epoch snapshots and Footprint for
// budget accounting.
type Bundle struct {
	cfg BundleConfig
	mc  *graphsketch.MinCutSketch
	sp  *graphsketch.SimpleSparsifier
	// spLog is the coalesced live edge set as a replayable stream — the
	// Baswana–Sen construction is r-adaptive (multi-pass), so it cannot run
	// off a linear sketch alone. Appends accumulate and re-coalesce once
	// the log doubles, keeping it O(live edges), not O(stream length).
	spLog     []stream.Update
	coalesced int // prefix length known coalesced

	// sketchBytes is the resident size of mc and sp together. The config
	// fixes it: their arenas are shared-mode (cell arrays, hash state and
	// power tables all sized and built at construction), so no update, merge
	// or install moves it and ResidentBytes never has to read a cell.
	sketchBytes int64
	// pristine marks the NewBundle state: nothing has been folded in yet, so
	// a failed MergeBytes can be undone by re-creating it instead of being
	// staged on a clone. Clones never carry it.
	pristine bool

	// Digest cache: one manifest leaf per bank plus a dirty flag, so epoch
	// publication recomputes only the banks a batch touched. Sketch banks
	// use the conservative BatchMaxLevel bound (an update at level l dirties
	// levels 0..l); log chunks are dirtied exactly by edge-index keying.
	// Lazily allocated on first Manifest call.
	dig      []wire.BankRef
	digDirty []bool
	// bankBuf is the digest passes' bank-encode buffer, kept across calls so
	// a publish does not regrow it from nothing; never cloned.
	bankBuf []byte
}

// NewBundle creates an empty bundle with the given shape.
func NewBundle(cfg BundleConfig) *Bundle {
	b := &Bundle{
		cfg:      cfg,
		mc:       graphsketch.NewMinCutSketchK(cfg.N, cfg.K, cfg.Seed),
		sp:       graphsketch.NewSimpleSparsifier(cfg.N, cfg.Eps, cfg.Seed),
		pristine: true,
	}
	// Empty sketches: the occupancy-guided footprint walk touches no cell.
	b.sketchBytes = b.mc.Footprint().ResidentBytes + b.sp.Footprint().ResidentBytes
	return b
}

// Config returns the bundle's shape.
func (b *Bundle) Config() BundleConfig { return b.cfg }

// UpdateBatch applies one batch to every member sketch and the spanner log.
func (b *Bundle) UpdateBatch(ups []stream.Update) {
	if len(ups) == 0 {
		return
	}
	b.pristine = false
	b.markBatchDirty(ups)
	b.mc.UpdateBatch(ups)
	b.sp.UpdateBatch(ups)
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

// Clone deep-copies the bundle — the epoch-snapshot primitive. The clone
// shares nothing mutable with the original, so queries against it never
// block (or observe) ingest. The digest cache is carried over (it describes
// the same state).
func (b *Bundle) Clone() *Bundle {
	return &Bundle{
		cfg:         b.cfg,
		mc:          b.mc.Clone(),
		sp:          b.sp.Clone(),
		spLog:       append([]stream.Update(nil), b.spLog...),
		coalesced:   b.coalesced,
		sketchBytes: b.sketchBytes,
		dig:         append([]wire.BankRef(nil), b.dig...),
		digDirty:    append([]bool(nil), b.digDirty...),
	}
}

// MinCut estimates the global min cut from the bundle's epoch state.
func (b *Bundle) MinCut() (graphsketch.MinCutResult, error) { return b.mc.MinCut() }

// Sparsify recovers the cut sparsifier's graph.
func (b *Bundle) Sparsify() (*graphsketch.Graph, error) { return b.sp.Sparsify() }

// Spanner builds a (2k-1)-spanner from the coalesced update log. The log's
// vertex range is validated here, not at decode time: a merged payload
// vouches for its own section, and this is the deliberate corrupt-payload
// fixture the service's panic-isolation middleware is tested against.
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
	st := &stream.Stream{N: b.cfg.N, Updates: b.spLog}
	return graphsketch.BaswanaSenSpanner(st, b.cfg.SpannerK, b.cfg.Seed)
}

// Footprint accumulates the member sketches' resident/wire sizes plus the
// spanner log (24 bytes per buffered update).
func (b *Bundle) Footprint() graphsketch.Footprint {
	fp := b.mc.Footprint()
	fp.Accum(b.sp.Footprint())
	fp.ResidentBytes += int64(len(b.spLog)) * 24
	return fp
}

// ResidentBytes is the budget-accounting scalar (admission control and
// evict-coldest run on it): Footprint().ResidentBytes in O(1), because the
// writer refreshes it after every op.
func (b *Bundle) ResidentBytes() int64 { return b.sketchBytes + int64(len(b.spLog))*24 }

// ---------------------------------------------------------------------------
// Banked payload (v2) and the digest tree
// ---------------------------------------------------------------------------
//
// A bundle's wire state decomposes into an ordered list of BANKS, the unit
// the digest tree and delta anti-entropy address:
//
//	[0, mcBanks)                     min-cut subsampling levels, compact
//	[mcBanks, mcBanks+spBanks)       sparsifier sampling levels, compact
//	[mcBanks+spBanks, +logBankCount) spanner-log chunks keyed by
//	                                 EdgeIndex(u,v,N) % logBankCount
//
// Sketch banks are headerless tagged cell states (AppendBank); log chunks
// are uvarint count + (u, v, zigzag delta) triples over the COALESCED log,
// so every bank encoding is canonical for its state. The payload is:
//
//	config header  5 uvarints (N, K, Eps bits, SpannerK, Seed)
//	totalBanks     uvarint
//	presentCount   uvarint
//	present        presentCount × { id uvarint, len uvarint, bytes }
//	manifest       GSD1 over ALL totalBanks banks
//
// A full payload carries every bank (snapshots, /payload, sync installs); a
// delta payload carries only the banks a peer asked for, but always the
// full manifest — the receiver verifies every present bank against its
// leaf, and every absent bank against its own local bytes, before trusting
// a bank-granular install.

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

// NumBanks reports the bundle's digest-tree width.
func (b *Bundle) NumBanks() int {
	return b.mc.NumBanks() + b.sp.NumBanks() + logBankCount
}

// markBatchDirty invalidates the digest-cache leaves a batch can touch.
// No-op until the cache exists (first Manifest call pays full price).
func (b *Bundle) markBatchDirty(ups []stream.Update) {
	if b.digDirty == nil {
		return
	}
	mcN, spN := b.mc.NumBanks(), b.sp.NumBanks()
	for l := b.mc.BatchMaxLevel(ups); l >= 0; l-- {
		b.digDirty[l] = true
	}
	for l := b.sp.BatchMaxLevel(ups); l >= 0; l-- {
		b.digDirty[mcN+l] = true
	}
	for _, u := range ups {
		b.digDirty[mcN+spN+logChunk(u, b.cfg.N)] = true
	}
}

// markAllDirty drops every cached leaf (wholesale state changes: merge,
// bank install, unmarshal).
func (b *Bundle) markAllDirty() {
	for i := range b.digDirty {
		b.digDirty[i] = true
	}
}

// appendBank appends bank id's canonical bytes. The spanner log must
// already be coalesced when a log bank is encoded.
func (b *Bundle) appendBank(buf []byte, id int) ([]byte, error) {
	mcN, spN := b.mc.NumBanks(), b.sp.NumBanks()
	switch {
	case id < 0 || id >= mcN+spN+logBankCount:
		return nil, fmt.Errorf("service: bank %d out of [0,%d): %w", id, b.NumBanks(), graphsketch.ErrBadEncoding)
	case id < mcN:
		return b.mc.AppendBank(buf, id)
	case id < mcN+spN:
		return b.sp.AppendBank(buf, id-mcN)
	}
	chunk := id - mcN - spN
	ups := make([]stream.Update, 0, len(b.spLog)/logBankCount+1)
	for _, u := range b.spLog {
		if logChunk(u, b.cfg.N) == chunk {
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
		return nil, fmt.Errorf("service: log bank trailing bytes: %w", graphsketch.ErrBadEncoding)
	}
	return ups, nil
}

// refreshDigests brings the digest cache current: coalesce the log (log
// leaves digest canonical chunk bytes), then re-encode and re-digest every
// dirty bank. First call builds the cache wholesale.
func (b *Bundle) refreshDigests() error {
	_, err := b.encodeBanks(nil, nil)
	return err
}

// encodeBanks is refreshDigests that also appends every bank marked in want
// (nil = none) to out as id, length, bytes, in id order — encoding each bank
// at most once: a dirty bank's bytes serve its digest and the output both, a
// clean bank is encoded only if wanted.
func (b *Bundle) encodeBanks(out []byte, want []bool) ([]byte, error) {
	b.coalesceLog()
	if b.dig == nil {
		b.dig = make([]wire.BankRef, b.NumBanks())
		b.digDirty = make([]bool, b.NumBanks())
		b.markAllDirty()
	}
	for id := range b.dig {
		encoded := b.digDirty[id]
		if encoded {
			bankB, err := b.appendBank(b.bankBuf[:0], id)
			if err != nil {
				return nil, err
			}
			b.bankBuf = bankB
			b.dig[id] = wire.BankRef{Len: uint64(len(bankB)), Digest: wire.BankDigest(bankB)}
			b.digDirty[id] = false
		}
		if want == nil || !want[id] {
			continue
		}
		out = wire.AppendUvarint(out, uint64(id))
		out = wire.AppendUvarint(out, b.dig[id].Len)
		if encoded {
			out = append(out, b.bankBuf...)
			continue
		}
		var err error
		if out, err = b.appendBank(out, id); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Manifest returns the bundle's current digest tree (a copy; callers may
// hold it across further updates).
func (b *Bundle) Manifest() (wire.Manifest, error) {
	if err := b.refreshDigests(); err != nil {
		return wire.Manifest{}, err
	}
	return wire.Manifest{Banks: append([]wire.BankRef(nil), b.dig...)}, nil
}

// VerifyDigests is the scrubber's live-state check: re-encode EVERY bank
// and compare against the cached manifest leaves. A clean (non-dirty) leaf
// that no longer matches its bank's bytes means the in-memory state or its
// cache rotted since the last epoch publication — something no update path
// can cause. Returns ErrDigestMismatch (wrapped) naming the first diverged
// bank; the cache is left untouched so repair logic can still read the
// pre-rot manifest.
func (b *Bundle) VerifyDigests() error {
	if b.dig == nil {
		return nil // nothing published yet, nothing to contradict
	}
	b.coalesceLog()
	var scratch []byte
	for id := range b.dig {
		if b.digDirty[id] {
			continue // not yet published; nothing to verify against
		}
		bankB, err := b.appendBank(scratch[:0], id)
		if err != nil {
			return err
		}
		scratch = bankB
		ref := wire.BankRef{Len: uint64(len(bankB)), Digest: wire.BankDigest(bankB)}
		if ref != b.dig[id] {
			return fmt.Errorf("service: bank %d digest mismatch (live %x/%d, manifest %x/%d): %w",
				id, ref.Digest, ref.Len, b.dig[id].Digest, b.dig[id].Len, ErrDigestMismatch)
		}
	}
	return nil
}

// appendConfigHeader writes the 5-uvarint config header.
func (b *Bundle) appendConfigHeader(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(b.cfg.N))
	buf = wire.AppendUvarint(buf, uint64(b.cfg.K))
	buf = wire.AppendUvarint(buf, math.Float64bits(b.cfg.Eps))
	buf = wire.AppendUvarint(buf, uint64(b.cfg.SpannerK))
	return wire.AppendUvarint(buf, b.cfg.Seed)
}

// MarshalBanks encodes a banked payload carrying the requested banks (ids
// ascending, duplicates ignored) plus the full manifest. nil asks for every
// bank — the full payload MarshalBinaryCompact returns.
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
			return nil, fmt.Errorf("service: bank %d out of [0,%d): %w", id, total, graphsketch.ErrBadEncoding)
		}
		if !want[id] {
			want[id] = true
			present++
		}
	}
	out := b.appendConfigHeader(nil)
	out = wire.AppendUvarint(out, uint64(total))
	out = wire.AppendUvarint(out, uint64(present))
	out, err := b.encodeBanks(out, want)
	if err != nil {
		return nil, err
	}
	return wire.AppendManifest(out, wire.Manifest{Banks: b.dig}), nil
}

// MarshalBinaryCompact encodes the full banked payload: config header,
// every bank, and the digest manifest. The encoding is canonical (sketch
// banks marshal canonically, the log is coalesced and sorted first), which
// is what makes bit-identity assertions meaningful end to end.
func (b *Bundle) MarshalBinaryCompact() ([]byte, error) {
	return b.MarshalBanks(nil)
}

// bundlePayload is a decoded banked payload: which banks are present (by
// id, bytes aliasing the input) and the full manifest, all digest-verified.
type bundlePayload struct {
	total   int
	present map[int][]byte
	man     wire.Manifest
}

// decodePayload validates a banked payload against this bundle's config
// and shape, verifying every present bank's bytes against its manifest
// leaf. Corruption anywhere — config mismatch, bank out of order, digest
// mismatch, trailing bytes — errors without touching bundle state.
func (b *Bundle) decodePayload(data []byte) (*bundlePayload, error) {
	hdr := []uint64{uint64(b.cfg.N), uint64(b.cfg.K), math.Float64bits(b.cfg.Eps), uint64(b.cfg.SpannerK), b.cfg.Seed}
	for _, wantV := range hdr {
		got, rest, err := wire.Uvarint(data)
		if err != nil {
			return nil, fmt.Errorf("service: bundle header: %w", err)
		}
		if got != wantV {
			return nil, fmt.Errorf("service: bundle config mismatch (%d != %d): %w", got, wantV, graphsketch.ErrBadEncoding)
		}
		data = rest
	}
	total, data, err := wire.Uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("service: bundle bank count: %w", err)
	}
	if total != uint64(b.NumBanks()) {
		return nil, fmt.Errorf("service: bundle has %d banks, want %d: %w", total, b.NumBanks(), graphsketch.ErrBadEncoding)
	}
	presentCount, data, err := wire.Uvarint(data)
	if err != nil || presentCount > total {
		return nil, fmt.Errorf("service: bundle present count: %w", graphsketch.ErrBadEncoding)
	}
	p := &bundlePayload{total: int(total), present: make(map[int][]byte, presentCount)}
	prev := -1
	for i := uint64(0); i < presentCount; i++ {
		id, rest, err := wire.Uvarint(data)
		if err != nil {
			return nil, fmt.Errorf("service: bundle bank id: %w", err)
		}
		if int64(id) <= int64(prev) || id >= total {
			return nil, fmt.Errorf("service: bundle bank ids not ascending: %w", graphsketch.ErrBadEncoding)
		}
		prev = int(id)
		n, rest, err := wire.Uvarint(rest)
		if err != nil || n > uint64(len(rest)) {
			return nil, fmt.Errorf("service: bundle bank %d length: %w", id, graphsketch.ErrBadEncoding)
		}
		p.present[int(id)] = rest[:n]
		data = rest[n:]
	}
	p.man, data, err = wire.DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("service: bundle manifest: %w", err)
	}
	if len(p.man.Banks) != p.total {
		return nil, fmt.Errorf("service: bundle manifest covers %d banks, want %d: %w", len(p.man.Banks), p.total, graphsketch.ErrBadEncoding)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("service: bundle trailing bytes: %w", graphsketch.ErrBadEncoding)
	}
	// Every present bank must match its manifest leaf — a flipped bit in
	// either the bank bytes or the manifest fails here (the manifest's own
	// root check already vouched for its internal consistency).
	for id, bankB := range p.present {
		ref := p.man.Banks[id]
		if ref.Len != uint64(len(bankB)) || ref.Digest != wire.BankDigest(bankB) {
			return nil, fmt.Errorf("service: bundle bank %d bytes contradict manifest: %w", id, ErrDigestMismatch)
		}
	}
	return p, nil
}

// MergeBytes folds an encoded FULL bundle payload into this one (linear:
// sketch states add, spanner logs concatenate and re-coalesce). The config
// header must match exactly, every bank must be present and digest-clean.
// The log banks' vertex range is deliberately trusted here and checked at
// Spanner() time — see there.
//
// All or nothing: a bank that fails to decode leaves the bundle as it was.
// A live bundle stages the fold on clones of its sketches and swaps them in;
// a pristine one (recovery's and a full pull's factory-fresh target) folds in
// place and is re-created empty on error, which spares copying a whole
// bundle of zeros.
func (b *Bundle) MergeBytes(data []byte) error {
	p, err := b.decodePayload(data)
	if err != nil {
		return err
	}
	return b.mergePayload(p)
}

func (b *Bundle) mergePayload(p *bundlePayload) error {
	if len(p.present) != p.total {
		return fmt.Errorf("service: merge needs a full payload (%d/%d banks): %w", len(p.present), p.total, graphsketch.ErrBadEncoding)
	}
	inPlace := b.pristine
	mc2, sp2 := b.mc, b.sp
	if !inPlace {
		mc2, sp2 = b.mc.Clone(), b.sp.Clone()
	}
	mcN, spN := mc2.NumBanks(), sp2.NumBanks()
	var logUps []stream.Update
	for id := 0; id < p.total; id++ {
		var err error
		bankB := p.present[id]
		switch {
		case id < mcN:
			err = mc2.MergeBank(id, bankB)
		case id < mcN+spN:
			err = sp2.MergeBank(id-mcN, bankB)
		default:
			var ups []stream.Update
			if ups, err = decodeLogBank(bankB); err == nil {
				logUps = append(logUps, ups...)
			}
		}
		if err != nil {
			if inPlace {
				*b = *NewBundle(b.cfg)
			}
			return err
		}
	}
	b.mc, b.sp = mc2, sp2
	b.spLog = append(b.spLog, logUps...)
	b.coalesced = 0
	b.pristine = false
	b.markAllDirty()
	return nil
}

// InstallBanks replace-installs a banked payload: present banks overwrite
// the local ones; absent banks keep their local bytes, which is only sound
// when those bytes are already identical to the sender's — enforced by
// requiring every absent bank's CURRENT local leaf to equal the payload
// manifest's. After installing, the assembled state's recomputed root must
// equal the payload root, or the install is rolled back (clone-and-swap)
// with ErrDeltaInsufficient — the caller falls back to a full pull.
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
	// Replaced sketch banks decode in place, replaced log chunks splice into
	// the coalesced log.
	mcN, spN := b.mc.NumBanks(), b.sp.NumBanks()
	logTouched := false
	for id := 0; id < p.total; id++ {
		bankB, ok := p.present[id]
		if !ok {
			continue
		}
		var err error
		switch {
		case id < mcN:
			err = b.mc.ReplaceBank(id, bankB)
		case id < mcN+spN:
			err = b.sp.ReplaceBank(id-mcN, bankB)
		default:
			chunk := id - mcN - spN
			var ups []stream.Update
			if ups, err = decodeLogBank(bankB); err == nil {
				kept := b.spLog[:0]
				for _, u := range b.spLog {
					if logChunk(u, b.cfg.N) != chunk {
						kept = append(kept, u)
					}
				}
				b.spLog = append(kept, ups...)
				logTouched = true
			}
		}
		if err != nil {
			return err
		}
	}
	if logTouched {
		b.coalesced = 0 // re-sort: spliced chunks broke the order
	}
	b.markAllDirty()
	if err := b.refreshDigests(); err != nil {
		return err
	}
	got := wire.Manifest{Banks: b.dig}
	if got.Root() != p.man.Root() {
		return fmt.Errorf("service: assembled state root %x != payload root %x: %w", got.Root(), p.man.Root(), ErrDeltaInsufficient)
	}
	return nil
}

// assemble builds the state a peer's payload describes, as a new bundle; of
// b only the digest cache may change (brought current, never the state).
// Which of the two constructions runs is read off the payload, not asked of
// the caller:
//
//   - a full payload (every bank present) is folded into a factory-fresh
//     bundle — never into b, where linearity would double-count;
//   - a bank payload is grafted onto a clone of b, after every ABSENT bank's
//     current leaf in b has been found equal to the peer's (checked before
//     the clone: an insufficient delta costs digests, not a copy of the
//     state). rebuildLeaves first discards b's cached leaves, so that check
//     sees b's bytes as they are now; a tenant whose bytes are suspect needs
//     that, a healthy one does not pay for it.
//
// full reports which it was. Every present bank has been checked against its
// manifest leaf either way; checking the result against a root advertised
// out of band is the caller's.
func (b *Bundle) assemble(data []byte, rebuildLeaves bool) (next *Bundle, full bool, err error) {
	p, err := b.decodePayload(data)
	if err != nil {
		return nil, false, err
	}
	if len(p.present) == p.total {
		next = NewBundle(b.cfg)
		return next, true, next.mergePayload(p)
	}
	if rebuildLeaves {
		b.markAllDirty()
	}
	if err := b.refreshDigests(); err != nil {
		return nil, false, err
	}
	for id := 0; id < p.total; id++ {
		if _, ok := p.present[id]; !ok && b.dig[id] != p.man.Banks[id] {
			return nil, false, fmt.Errorf("service: bank %d diverges locally but is absent from delta payload: %w", id, ErrDeltaInsufficient)
		}
	}
	next = b.Clone()
	return next, false, next.replaceBanks(p)
}

// RecomputeDigests rebuilds every manifest leaf from the live bytes,
// discarding the cache. The repair path uses it so the local manifest
// reflects rotted reality before diffing against a peer's — a cached
// pre-rot leaf would hide exactly the bank that needs pulling.
func (b *Bundle) RecomputeDigests() error {
	b.markAllDirty()
	return b.refreshDigests()
}

// InjectBankRot deterministically corrupts one bank's live in-memory state
// WITHOUT touching the digest cache — the chaos hook the scrub tests and
// the sim's bit-rot matrix use to model silent memory rot. Sketch banks
// absorb a synthetic nonzero single-edge state (linearity keeps the bytes
// decodable while guaranteeing the canonical encoding changes); log chunks
// gain a phantom update keyed to the chunk.
func (b *Bundle) InjectBankRot(bank int, seed uint64) error {
	mcN, spN := b.mc.NumBanks(), b.sp.NumBanks()
	if bank < 0 || bank >= b.NumBanks() {
		return fmt.Errorf("service: bank %d out of [0,%d): %w", bank, b.NumBanks(), graphsketch.ErrBadEncoding)
	}
	b.pristine = false
	if bank >= mcN+spN {
		chunk := bank - mcN - spN
		for i := uint64(0); ; i++ {
			u := stream.Update{U: int((seed + i) % uint64(b.cfg.N)), V: int((seed + i + 1) % uint64(b.cfg.N)), Delta: 1}
			if u.U != u.V && logChunk(u, b.cfg.N) == chunk {
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
		up := []stream.Update{{U: u, V: v, Delta: 1}}
		tmp.mc.UpdateBatch(up)
		tmp.sp.UpdateBatch(up)
		bankB, err := tmp.appendBank(nil, bank)
		if err != nil {
			return err
		}
		if !bytes.Equal(bankB, emptyB) {
			if bank < mcN {
				return b.mc.MergeBank(bank, bankB)
			}
			return b.sp.MergeBank(bank-mcN, bankB)
		}
	}
	return fmt.Errorf("service: could not synthesize rot for bank %d", bank)
}
