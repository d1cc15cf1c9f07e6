package service

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"graphsketch/internal/hashing"
)

// SyncConfig parameterizes a replica's anti-entropy syncer.
type SyncConfig struct {
	// Peers are the other replicas' base URLs (never this node's own).
	Peers []string
	// Every is the anti-entropy interval (default 500ms).
	Every time.Duration
	// Timeout bounds each probe/pull request (default 2s). Pulls retry on
	// the next round rather than inside one, so a partitioned peer costs
	// one timeout per round, not a retry storm.
	Timeout time.Duration
	// JitterSeed seeds the pull clients' backoff jitter and the per-peer
	// round backoff (tests pin it).
	JitterSeed uint64
}

func (c SyncConfig) withDefaults() SyncConfig {
	if c.Every <= 0 {
		c.Every = 500 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	return c
}

// maxBackoffShift caps the per-peer round backoff at 2^6 = 64 rounds.
const maxBackoffShift = 6

// peerState is one peer's client plus its round-granular backoff ledger: a
// peer that failed its last round is skipped for exponentially many rounds
// (with seeded jitter) instead of eating a timeout every round. Guarded by
// the syncer mutex; /metricz snapshots it via PeerSyncStatus.
type peerState struct {
	client *Client
	base   string

	failures  int   // consecutive failed rounds
	nextRound int64 // first round eligible again
	skipped   int64 // rounds suppressed by backoff (monotone)
}

// PeerSyncStatus is one peer's backoff snapshot, surfaced in /metricz.
type PeerSyncStatus struct {
	Peer              string `json:"peer"`
	Failures          int    `json:"failures"`
	NextEligibleRound int64  `json:"next_eligible_round"`
	SkippedRounds     int64  `json:"skipped_rounds"`
}

// Syncer is the anti-entropy loop that makes a serve instance a replica:
// every round it probes each eligible peer for the tenants it serves,
// their durable positions, and their digest-manifest roots, and wherever a
// peer is ahead it converges by the first rung of a ladder that works:
//
//  1. the log rung: a healthy tenant that is behind pulls the peer's log
//     since its own position (GET …/log?from=P) and lands it through
//     Server.installLog, which applies it in memory and makes it durable
//     only if the result reproduces the manifest root served with it. The
//     peer answers 410 when it has no exact suffix (P predates its
//     snapshot, is not a record boundary, or a compacted record follows
//     it) or when the suffix outweighs its snapshot;
//  2. the bank rung: pull only the banks whose digests differ, when the
//     manifests mostly agree;
//  3. the full rung: pull the whole epoch-stamped payload.
//
// A 410, a suffix that does not decode and a root mismatch all fall through
// to the bank rung in the same round, so the bank and full rungs are the
// repair path: first contact, a replica behind a peer's snapshot, a merge
// (which never enters the log), or divergence. Tenants quarantined by the
// integrity scrubber skip the log rung and are repaired from the first
// healthy peer by the same bank or full pull: for them any healthy peer
// counts as ahead.
//
// The protocol needs nothing beyond pull + position dedup because the
// payloads are linear-sketch states: a payload at position P is the
// complete, canonical state of the stream prefix [0,P), so installing the
// highest-position payload converges a follower in one round no matter how
// many pulls it missed, and a state at P plus the log suffix after P is the
// state at the suffix's end. The digest tree checks every rung: a log
// suffix, a bank payload and a full payload alike land only if the state
// they build reproduces the root the peer advertised.
type Syncer struct {
	srv *Server
	cfg SyncConfig

	mu    sync.Mutex
	round int64
	peers []*peerState

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// SyncRound reports one anti-entropy round's work, for tests and rows.
type SyncRound struct {
	Probed   int   // tenant/peer position probes answered
	Pulled   int   // payloads fetched because a peer was ahead
	Applied  int   // installs that advanced local state
	Skipped  int   // installs deduped by position
	Failed   int   // probes or pulls that errored (partitioned peer, etc.)
	Repaired int   // quarantined tenants restored from a peer this round
	Deltas   int   // convergences satisfied by log-suffix or bank-granular delta pulls
	Logs     int   // of those, convergences satisfied by log-suffix pulls
	Bytes    int64 // sealed payload and log-suffix bytes transferred
}

// NewSyncer builds a syncer for srv against cfg.Peers and registers its
// backoff snapshot with the server's /metricz.
func NewSyncer(srv *Server, cfg SyncConfig) *Syncer {
	cfg = cfg.withDefaults()
	y := &Syncer{srv: srv, cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	for _, p := range cfg.Peers {
		y.peers = append(y.peers, &peerState{
			base: p,
			client: &Client{
				Base:       p,
				Timeout:    cfg.Timeout,
				Attempts:   1, // retries are the next round's job
				JitterSeed: cfg.JitterSeed,
			},
		})
	}
	srv.SetSyncStatus(y.PeerStatus)
	return y
}

// PeerStatus snapshots every peer's backoff state for /metricz.
func (y *Syncer) PeerStatus() []PeerSyncStatus {
	y.mu.Lock()
	defer y.mu.Unlock()
	out := make([]PeerSyncStatus, 0, len(y.peers))
	for _, ps := range y.peers {
		out = append(out, PeerSyncStatus{
			Peer:              ps.base,
			Failures:          ps.failures,
			NextEligibleRound: ps.nextRound,
			SkippedRounds:     ps.skipped,
		})
	}
	return out
}

// Run loops anti-entropy rounds every cfg.Every until Stop (or the server
// is killed). Call in a goroutine; Stop blocks until the loop exits.
func (y *Syncer) Run() {
	defer close(y.done)
	ticker := time.NewTicker(y.cfg.Every)
	defer ticker.Stop()
	for {
		select {
		case <-y.stop:
			return
		case <-y.srv.killed:
			return
		case <-ticker.C:
			y.RunOnce(context.Background())
		}
	}
}

// Stop halts the loop and waits for the in-flight round to finish.
func (y *Syncer) Stop() {
	y.stopOnce.Do(func() { close(y.stop) })
	<-y.done
}

// RunOnce performs one anti-entropy round: probe every backoff-eligible
// peer, converge where behind, repair what is quarantined. Exported so
// tests and harnesses drive convergence deterministically without timers.
func (y *Syncer) RunOnce(ctx context.Context) SyncRound {
	var round SyncRound
	y.srv.met.SyncRounds.Add(1)
	y.mu.Lock()
	y.round++
	r := y.round
	y.mu.Unlock()
	for i, ps := range y.peers {
		y.mu.Lock()
		eligible := r >= ps.nextRound
		if !eligible {
			ps.skipped++
		}
		y.mu.Unlock()
		if !eligible {
			continue
		}
		peerFailed := false
		names, ok := y.peerTenants(ps.client)
		if !ok {
			peerFailed = true
		}
		for _, name := range names {
			if !y.syncTenant(ctx, ps.client, name, &round) {
				peerFailed = true
			}
		}
		y.noteOutcome(ps, i, r, peerFailed)
	}
	return round
}

// noteOutcome updates one peer's backoff ledger after its round: a failure
// doubles the skip window (capped at 2^maxBackoffShift rounds) with a
// seeded jitter of up to half the window, a success clears it.
func (y *Syncer) noteOutcome(ps *peerState, peerIdx int, round int64, failed bool) {
	y.mu.Lock()
	defer y.mu.Unlock()
	if !failed {
		ps.failures = 0
		ps.nextRound = 0
		return
	}
	ps.failures++
	shift := ps.failures
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	delay := int64(1) << shift
	seed := y.cfg.JitterSeed
	if seed == 0 {
		seed = 1
	}
	// Deterministic per (seed, peer, failure count): replicas with different
	// seeds desynchronize their retry storms, tests with pinned seeds pin
	// the exact schedule.
	jitter := int64(hashing.Mix64(seed^uint64(peerIdx)*0x9E3779B97F4A7C15+uint64(ps.failures)) % uint64(delay/2+1))
	ps.nextRound = round + delay + jitter
}

// peerTenants returns the union of the peer's loaded tenants and our own
// (ok=false when the peer's tenant listing was unreachable): a tenant the
// peer has never heard of is probed anyway (the probe loads it from the
// peer's disk if it exists there), and a tenant only the peer knows must
// be adopted locally.
func (y *Syncer) peerTenants(peer *Client) ([]string, bool) {
	seen := map[string]bool{}
	var names []string
	met, err := peer.Metrics()
	if err == nil {
		for _, n := range met.Tenants {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	for _, n := range y.srv.TenantNames() {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	return names, err == nil
}

// syncTenant probes one (peer, tenant) pair and converges on the peer's
// state if there is a reason to: the peer is ahead, or the tenant is locally
// quarantined and the peer is healthy (a repair — the same pull, wanted at
// any position). Returns false when the peer itself misbehaved (transport
// failures feed the backoff ledger; local apply errors do not).
func (y *Syncer) syncTenant(ctx context.Context, peer *Client, name string, round *SyncRound) bool {
	pi, err := peer.PositionEx(name)
	if err != nil {
		return y.peerFailed(round)
	}
	round.Probed++
	if pi.Quarantined {
		return true // a fenced peer serves no payloads: nothing to converge on or repair from
	}
	t, _ := y.srv.Tenant(name, false) // nil: the peer knows a tenant we have yet to adopt
	fenced := t != nil && t.Quarantined()
	if !fenced {
		localPos := -1
		if t != nil {
			// Refresh the lag mirrors on every probe, not just on pulls, so a
			// follower that is merely behind (not pulling yet) still reports it.
			localPos = t.Acked()
			t.replPeerPos.Store(int64(pi.Acked))
			behindEpochs := int64(pi.Epoch) - int64(t.syncEpoch.Load())
			if behindEpochs < 0 || pi.Acked <= localPos {
				behindEpochs = 0
			}
			t.replEpochsBehind.Store(behindEpochs)
		}
		if pi.Acked <= localPos {
			return true // we are the one ahead (or equal): nothing to converge
		}
	}

	// The ladder. Log rung: a healthy tenant that is behind replays the
	// peer's log since its own position.
	if t != nil && !fenced {
		if done, ok := y.logRung(ctx, peer, name, t.Acked(), round); done {
			return ok
		}
	}
	// Bank rung: when both sides have digest manifests of the same width,
	// pull only the diverged banks. A fenced tenant's leaves are recomputed
	// from its (partly rotted) bytes first — a maintained pre-rot leaf would
	// hide exactly the bank that needs pulling.
	if t != nil && pi.HasManifest {
		if local, _, merr := y.srv.ManifestNow(ctx, name, fenced); merr == nil && len(local.Banks) == len(pi.Manifest.Banks) {
			if diverged := local.Diff(pi.Manifest); len(diverged) < len(local.Banks) {
				sealed, pos, epoch, root, perr := peer.PayloadBanksAt(name, diverged)
				if perr != nil {
					return y.peerFailed(round)
				}
				if y.land(ctx, name, pos, epoch, root, sealed, true, fenced, round) {
					return true
				}
			}
		}
	}
	// Full rung: first contact, width mismatch, or a delta that
	// could not prove byte-identity (a race with local ingest, a stale
	// manifest). Byte-identity with the peer is the postcondition either way.
	sealed, pos, epoch, root, err := peer.PayloadBanksAt(name, nil)
	if err != nil {
		return y.peerFailed(round)
	}
	if t != nil {
		t.replBytesPending.Store(int64(len(sealed)))
	}
	y.land(ctx, name, pos, epoch, root, sealed, false, fenced, round)
	return true
}

// logRung pulls the peer's log since from and lands it. done reports that
// the pair needs nothing more this round, with ok syncTenant's verdict
// (false: the peer did not answer); otherwise the bank rung takes over — the
// peer answered but had no suffix to give (410), or the suffix was refused.
func (y *Syncer) logRung(ctx context.Context, peer *Client, name string, from int, round *SyncRound) (done, ok bool) {
	sealed, pos, epoch, root, err := peer.LogAt(name, from)
	if err != nil {
		var ae *apiError
		if errors.As(err, &ae) {
			if ae.Status == http.StatusGone {
				y.srv.met.SyncLogGone.Add(1)
			}
			return false, false
		}
		return true, y.peerFailed(round)
	}
	round.Pulled++
	round.Bytes += int64(len(sealed))
	_, applied, err := y.srv.installLog(ctx, name, from, pos, epoch, root, sealed)
	switch {
	case err != nil:
		return false, false
	case !applied:
		round.Skipped++
	default:
		round.Applied++
		round.Deltas++
		round.Logs++
	}
	return true, true
}

// peerFailed counts a probe or pull the peer did not answer.
func (y *Syncer) peerFailed(round *SyncRound) bool {
	round.Failed++
	y.srv.met.SyncFailed.Add(1)
	return false
}

// land installs one pulled payload and moves the round's counters. It
// reports whether this (peer, tenant) pair is done for the round; false means
// a delta that was insufficient or contradicted, which the full pull decides.
// Any other install error is a local problem, not the peer's: counted, done.
func (y *Syncer) land(ctx context.Context, name string, pos int, epoch, root uint64, sealed []byte, delta, fenced bool, round *SyncRound) bool {
	round.Pulled++
	round.Bytes += int64(len(sealed))
	_, applied, err := y.srv.install(ctx, name, pos, epoch, root, sealed)
	switch {
	case err != nil:
		if delta && (errors.Is(err, ErrDeltaInsufficient) || errors.Is(err, ErrDigestMismatch)) {
			return false
		}
		round.Failed++
	case !applied:
		round.Skipped++
	default:
		round.Applied++
		if delta {
			round.Deltas++
		}
		if fenced {
			round.Repaired++
		}
	}
	return true
}
