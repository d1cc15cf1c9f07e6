package service

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"graphsketch"
	"graphsketch/internal/runtime"
	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// maxBodyBytes bounds request bodies so a hostile client cannot OOM the
// server before decode hardening even sees the payload.
const maxBodyBytes = 64 << 20

// EncodeUpdates seals one update batch for the ingest endpoint: an envelope
// around stream.AppendBatch's encoding.
func EncodeUpdates(ups []stream.Update) []byte {
	return wire.Seal(stream.AppendBatch(nil, ups))
}

// DecodeUpdates inverts EncodeUpdates, rejecting corrupt envelopes,
// malformed varint streams and bytes after the batch.
func DecodeUpdates(sealed []byte) ([]stream.Update, error) {
	payload, _, err := wire.Open(sealed)
	if err != nil {
		return nil, err
	}
	ups, rest, err := stream.DecodeBatch(payload)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, wire.ErrBadEncoding
	}
	return ups, nil
}

// SealPayload wraps a compact bundle payload in the checksummed wire
// envelope the merge and payload endpoints speak.
func SealPayload(payload []byte) []byte { return wire.Seal(payload) }

// DecodeSealed opens a sealed payload, verifying the envelope.
func DecodeSealed(sealed []byte) ([]byte, error) {
	payload, _, err := wire.Open(sealed)
	return payload, err
}

// QueryMeta rides on every query response: which epoch served it and how
// stale that epoch is relative to the durable position — degraded answers
// report their coverage instead of failing.
type QueryMeta struct {
	Tenant    string `json:"tenant"`
	Pos       int    `json:"pos"`
	Acked     int    `json:"acked"`
	Staleness int    `json:"staleness"`
	Epoch     uint64 `json:"epoch"`
}

// MinCutResponse is the mincut query row.
type MinCutResponse struct {
	QueryMeta
	Value        int64 `json:"value"`
	Level        int   `json:"level"`
	WitnessCut   int64 `json:"witness_cut"`
	WitnessEdges int   `json:"witness_edges"`
}

// SparsifyResponse is the sparsify query row.
type SparsifyResponse struct {
	QueryMeta
	Edges       int   `json:"edges"`
	TotalWeight int64 `json:"total_weight"`
}

// SpannerResponse is the spanner query row.
type SpannerResponse struct {
	QueryMeta
	Edges        int     `json:"edges"`
	StretchBound float64 `json:"stretch_bound"`
	Passes       int     `json:"passes"`
}

// FootprintResponse is the footprint query row, including the durable
// byte split (snapshot vs log) so operators can see what recovery costs,
// and the replica's observed replication lag so staleness behind a primary
// is a reported number, not an inference.
type FootprintResponse struct {
	QueryMeta
	Footprint        graphsketch.Footprint `json:"footprint"`
	WALDurable       int                   `json:"wal_durable_updates"`
	WALReplay        int                   `json:"wal_replay_updates"`
	WALLogBytes      int                   `json:"wal_log_bytes"`
	WALSnapshotBytes int                   `json:"wal_snapshot_bytes"`
	// Replication lag mirrors (zero on a primary or an unreplicated node):
	// the freshest peer position the syncer probed, how far behind it this
	// replica's durable position and epoch are, the payload bytes pending
	// install, and the primary epoch of the last applied install.
	ReplPeerPos       int    `json:"repl_peer_pos"`
	ReplUpdatesBehind int    `json:"repl_updates_behind"`
	ReplEpochsBehind  int    `json:"repl_epochs_behind"`
	ReplBytesPending  int    `json:"repl_bytes_pending"`
	ReplSyncEpoch     uint64 `json:"repl_sync_epoch"`
}

// SpannerEdgeResponse is the spanner-edge membership row: whether (u,v)
// is in the sparse certificate the epoch's spanner build retained.
type SpannerEdgeResponse struct {
	QueryMeta
	U            int     `json:"u"`
	V            int     `json:"v"`
	InSpanner    bool    `json:"in_spanner"`
	Edges        int     `json:"edges"`
	StretchBound float64 `json:"stretch_bound"`
}

// IngestResponse acknowledges a durable batch (or, on a position conflict,
// reports the authoritative position to re-sync from). Position responses
// also carry the tenant's current epoch sequence so the anti-entropy probe
// can report epochs-behind without a second request.
type IngestResponse struct {
	Acked int    `json:"acked"`
	Epoch uint64 `json:"epoch,omitempty"`
	Error string `json:"error,omitempty"`
}

// PositionResponse is the /position row: the durable position plus the
// integrity advertisement — the last published epoch's digest-manifest
// root (and the manifest itself, for delta diffing) and the quarantine
// fence. Served even while quarantined; it is exactly what a repairing
// peer needs to know.
type PositionResponse struct {
	Acked int    `json:"acked"`
	Epoch uint64 `json:"epoch,omitempty"`
	// Root is the epoch manifest's root digest as 16 hex chars (JSON
	// numbers cannot carry a full uint64 faithfully).
	Root string `json:"root,omitempty"`
	// Manifest is the base64 GSD2 encoding of the epoch's digest tree.
	Manifest    string `json:"manifest,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
	Reason      string `json:"reason,omitempty"`
	Error       string `json:"error,omitempty"`
}

// MetricsResponse is the /metricz row.
type MetricsResponse struct {
	IngestBatches  int64 `json:"ingest_batches"`
	IngestUpdates  int64 `json:"ingest_updates"`
	IngestRejected int64 `json:"ingest_rejected"`
	Queries        int64 `json:"queries"`
	QueryPanics    int64 `json:"query_panics"`
	QueryTimeouts  int64 `json:"query_timeouts"`
	Evictions      int64 `json:"evictions"`
	Recoveries     int64 `json:"recoveries"`
	SyncRounds     int64 `json:"sync_rounds"`
	SyncApplied    int64 `json:"sync_applied"`
	SyncSkipped    int64 `json:"sync_skipped"`
	SyncFailed     int64 `json:"sync_failed"`
	// Integrity block: scrub activity, quarantine lifecycle, and the delta
	// anti-entropy byte accounting (delta bytes vs what full pulls would
	// have cost).
	ScrubRounds        int64            `json:"scrub_rounds"`
	ScrubFailed        int64            `json:"scrub_failed"`
	ScrubRepaired      int64            `json:"scrub_repaired"`
	CorruptSidelined   int64            `json:"corrupt_sidelined"`
	QuarantineRepairs  int64            `json:"quarantine_repairs"`
	SyncDigestReject   int64            `json:"sync_digest_reject"`
	SyncDeltaPulls     int64            `json:"sync_delta_pulls"`
	SyncDeltaBytes     int64            `json:"sync_delta_bytes"`
	SyncDeltaFullBytes int64            `json:"sync_delta_full_bytes"`
	SyncLogPulls       int64            `json:"sync_log_pulls"`
	SyncLogGone        int64            `json:"sync_log_gone"`
	WALSnapshotFailed  int64            `json:"wal_snapshot_failed"`
	Quarantined        []string         `json:"quarantined,omitempty"`
	SyncPeers          []PeerSyncStatus `json:"sync_peers,omitempty"`
	Tenants            []string         `json:"tenants"`
	Draining           bool             `json:"draining"`
	Ready              bool             `json:"ready"`
}

// Handler builds the service's HTTP surface. Every route runs under the
// middleware: a per-request deadline and panic isolation — a panicking
// handler (e.g. a query tripping over a corrupt merged payload) poisons
// exactly one response, bumps a metric, and the server keeps serving.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{tenant}/updates", s.handleIngest)
	mux.HandleFunc("POST /v1/tenants/{tenant}/merge", s.handleMerge)
	mux.HandleFunc("POST /v1/tenants/{tenant}/sync", s.handleSync)
	mux.HandleFunc("POST /v1/tenants/{tenant}/flush", s.handleFlush)
	mux.HandleFunc("GET /v1/tenants/{tenant}/payload", s.handlePayload)
	mux.HandleFunc("GET /v1/tenants/{tenant}/log", s.handleLog)
	mux.HandleFunc("GET /v1/tenants/{tenant}/position", s.handlePosition)
	mux.HandleFunc("GET /v1/tenants/{tenant}/query/{op}", s.handleQuery)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metricz", s.handleMetrics)
	return s.middleware(mux)
}

// middleware applies the request deadline and the panic boundary.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
		defer cancel()
		defer func() {
			if rec := recover(); rec != nil {
				s.met.QueryPanics.Add(1)
				writeJSON(w, http.StatusInternalServerError, map[string]string{
					"error": fmt.Sprintf("internal error: %v", rec),
				})
			}
		}()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// httpStatus maps service errors onto status codes.
func (s *Server) httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrBadTenantName), errors.Is(err, wire.ErrBadEncoding):
		return http.StatusBadRequest
	case errors.Is(err, ErrPositionConflict):
		return http.StatusConflict
	case errors.Is(err, ErrTenantBudget), errors.Is(err, ErrGlobalBudget):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDeltaInsufficient):
		// The delta payload cannot reconstruct the peer state; the caller
		// should retry with a full pull.
		return http.StatusConflict
	case errors.Is(err, ErrDigestMismatch):
		return http.StatusBadRequest
	case errors.Is(err, runtime.ErrNoSuffix):
		// No exact log suffix: the caller pulls banks or the full payload.
		return http.StatusGone
	case errors.Is(err, errKilledQueued):
		// Like a deadline, the outcome is unknown: not a refusal.
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrDraining), errors.Is(err, ErrKilled), errors.Is(err, ErrQuarantined):
		// Refused before the op was queued: nothing took effect.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		s.met.QueryTimeouts.Add(1)
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds is the backoff hint a 429 carries: budget pressure is
// a load condition, not a permanent state, so clients should come back —
// just not immediately.
const retryAfterSeconds = 1

func (s *Server) fail(w http.ResponseWriter, err error) {
	status := s.httpStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.fail(w, err)
		return
	}
	ups, err := DecodeUpdates(body)
	if err != nil {
		s.fail(w, err)
		return
	}
	at := -1
	if q := r.URL.Query().Get("at"); q != "" {
		if _, err := fmt.Sscanf(q, "%d", &at); err != nil {
			s.fail(w, fmt.Errorf("bad at=%q: %w", q, wire.ErrBadEncoding))
			return
		}
	}
	pos, err := s.Ingest(r.Context(), r.PathValue("tenant"), at, ups)
	if err != nil {
		status := s.httpStatus(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
		}
		writeJSON(w, status, IngestResponse{Acked: pos, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Acked: pos})
}

// handleSync is the anti-entropy install endpoint: body = sealed bundle
// payload (every bank, or only some), pos = the stream position it covers on
// the sending replica, epoch = its epoch stamp, root = the sender's
// advertised manifest root (16 hex chars; installs verify the payload
// reproduces it). Deduped by position server-side, so re-sends and reorders
// are idempotent; on a quarantined tenant a verified install is the repair.
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.fail(w, err)
		return
	}
	q := r.URL.Query()
	pos := -1
	if _, err := fmt.Sscanf(q.Get("pos"), "%d", &pos); err != nil || pos < 0 {
		s.fail(w, fmt.Errorf("bad pos=%q: %w", q.Get("pos"), wire.ErrBadEncoding))
		return
	}
	var epoch uint64
	fmt.Sscanf(q.Get("epoch"), "%d", &epoch)
	var root uint64
	if h := q.Get("root"); h != "" {
		if root, err = strconv.ParseUint(h, 16, 64); err != nil {
			s.fail(w, fmt.Errorf("bad root=%q: %w", h, wire.ErrBadEncoding))
			return
		}
	}
	acked, err := s.SyncApply(r.Context(), r.PathValue("tenant"), pos, epoch, root, body)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Acked: acked})
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.fail(w, err)
		return
	}
	pos, err := s.Merge(r.Context(), r.PathValue("tenant"), body)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Acked: pos})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	pos, err := s.Flush(r.Context(), r.PathValue("tenant"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Acked: pos})
}

// handlePayload serves the tenant's sealed banked payload. With no banks
// parameter it carries every bank; ?banks=3,7,12 (possibly empty) carries
// only those — the delta anti-entropy pull. The manifest root rides in
// X-Gsketch-Root so the receiver can verify before decoding anything.
func (s *Server) handlePayload(w http.ResponseWriter, r *http.Request) {
	var banks []int
	if q := r.URL.Query(); q.Has("banks") {
		banks = []int{}
		for _, f := range strings.Split(q.Get("banks"), ",") {
			if f == "" {
				continue
			}
			id, err := strconv.Atoi(f)
			if err != nil {
				s.fail(w, fmt.Errorf("bad banks=%q: %w", q.Get("banks"), wire.ErrBadEncoding))
				return
			}
			banks = append(banks, id)
		}
	}
	sealed, pos, epoch, root, err := s.PayloadBanks(r.Context(), r.PathValue("tenant"), banks)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeStamped(w, sealed, pos, epoch, root)
}

// handleLog serves the tenant's log suffix since ?from=P: the updates as one
// sealed batch, and in the X-Gsketch-* headers the live position, epoch and
// manifest root they lead to, so the puller can verify what it applies. 410
// Gone when there is no exact suffix or it outweighs the snapshot.
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("from")
	from, err := strconv.Atoi(q)
	if err != nil || from < 0 {
		s.fail(w, fmt.Errorf("bad from=%q: %w", q, wire.ErrBadEncoding))
		return
	}
	sealed, pos, epoch, root, err := s.LogSuffix(r.Context(), r.PathValue("tenant"), from)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeStamped(w, sealed, pos, epoch, root)
}

// writeStamped writes a sealed body with the position, epoch and manifest
// root of the state it describes or leads to.
func writeStamped(w http.ResponseWriter, sealed []byte, pos int, epoch, root uint64) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Gsketch-Pos", fmt.Sprint(pos))
	w.Header().Set("X-Gsketch-Epoch", fmt.Sprint(epoch))
	w.Header().Set("X-Gsketch-Root", fmt.Sprintf("%016x", root))
	// A known length spares the body chunked framing and lets the client
	// read it into one buffer of the right size.
	w.Header().Set("Content-Length", strconv.Itoa(len(sealed)))
	w.Write(sealed)
}

func (s *Server) handlePosition(w http.ResponseWriter, r *http.Request) {
	t, err := s.Tenant(r.PathValue("tenant"), false)
	if err != nil {
		s.fail(w, err)
		return
	}
	resp := PositionResponse{Acked: t.Acked()}
	if ep := t.Snapshot(); ep != nil {
		resp.Epoch = ep.Seq
		if len(ep.Manifest.Banks) > 0 {
			resp.Root = fmt.Sprintf("%016x", ep.Manifest.Root())
			resp.Manifest = base64.StdEncoding.EncodeToString(wire.EncodeManifest(ep.Manifest))
		}
	}
	if t.Quarantined() {
		resp.Quarantined = true
		resp.Reason = t.QuarantineReason()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleQuery serves the four read operations against the tenant's
// freshest epoch clone — never the live bundle, so it never blocks (or
// observes a torn state from) the single writer.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.met.Queries.Add(1)
	t, err := s.Tenant(r.PathValue("tenant"), false)
	if err != nil {
		s.fail(w, err)
		return
	}
	if t.Quarantined() {
		// Corrupt sketch banks fold silently into every linear query answer;
		// a fenced tenant serves no query results at all.
		s.fail(w, fmt.Errorf("%w: %s", ErrQuarantined, t.QuarantineReason()))
		return
	}
	ep := t.Snapshot()
	meta := QueryMeta{Tenant: t.Name(), Pos: ep.Pos, Acked: t.Acked(), Epoch: ep.Seq}
	meta.Staleness = meta.Acked - meta.Pos
	switch op := r.PathValue("op"); op {
	case "mincut":
		res, err := ep.MinCut()
		if err != nil {
			s.fail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, MinCutResponse{QueryMeta: meta, Value: res.Value, Level: res.Level, WitnessCut: res.WitnessCut, WitnessEdges: res.WitnessEdges})
	case "sparsify":
		g, err := ep.Sparsify()
		if err != nil {
			s.fail(w, err)
			return
		}
		writeJSON(w, http.StatusOK, SparsifyResponse{QueryMeta: meta, Edges: g.NumEdges(), TotalWeight: g.TotalWeight()})
	case "spanner":
		res := ep.Spanner()
		writeJSON(w, http.StatusOK, SpannerResponse{QueryMeta: meta, Edges: res.Spanner.NumEdges(), StretchBound: res.StretchBound, Passes: res.Passes})
	case "spanner-edge":
		q := r.URL.Query()
		u, v := -1, -1
		_, errU := fmt.Sscanf(q.Get("u"), "%d", &u)
		_, errV := fmt.Sscanf(q.Get("v"), "%d", &v)
		n := ep.Bundle.Config().N
		if errU != nil || errV != nil || u < 0 || v < 0 || u >= n || v >= n {
			s.fail(w, fmt.Errorf("spanner-edge wants u=&v= in [0,%d): %w", n, wire.ErrBadEncoding))
			return
		}
		in, res := ep.SpannerEdge(u, v)
		writeJSON(w, http.StatusOK, SpannerEdgeResponse{
			QueryMeta: meta, U: u, V: v, InSpanner: in,
			Edges: res.Spanner.NumEdges(), StretchBound: res.StretchBound,
		})
	case "footprint":
		durable, logB, snapB, replay, err := s.WALStats(r.Context(), t.Name())
		if err != nil {
			s.fail(w, err)
			return
		}
		behind := int(t.replPeerPos.Load()) - durable
		if behind < 0 {
			behind = 0
		}
		writeJSON(w, http.StatusOK, FootprintResponse{
			QueryMeta: meta, Footprint: ep.Footprint(),
			WALDurable: durable, WALReplay: replay, WALLogBytes: logB, WALSnapshotBytes: snapB,
			ReplPeerPos:       int(t.replPeerPos.Load()),
			ReplUpdatesBehind: behind,
			ReplEpochsBehind:  int(t.replEpochsBehind.Load()),
			ReplBytesPending:  int(t.replBytesPending.Load()),
			ReplSyncEpoch:     t.syncEpoch.Load(),
		})
	default:
		s.fail(w, fmt.Errorf("unknown query %q: %w", op, wire.ErrBadEncoding))
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "tenants": len(s.TenantNames())})
}

// handleReady is the readiness probe, distinct from /healthz liveness: it
// answers 200 only once Preload has recovered every tenant WAL on disk and
// published each tenant's first epoch, and flips back to 503 on drain. A
// replica that is alive but still replaying WALs must not receive
// failover traffic — its positions would be mid-recovery lies.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		status := "recovering"
		if s.Draining() {
			status = "draining"
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": status})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "tenants": len(s.TenantNames())})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, MetricsResponse{
		IngestBatches:      s.met.IngestBatches.Load(),
		IngestUpdates:      s.met.IngestUpdates.Load(),
		IngestRejected:     s.met.IngestRejected.Load(),
		Queries:            s.met.Queries.Load(),
		QueryPanics:        s.met.QueryPanics.Load(),
		QueryTimeouts:      s.met.QueryTimeouts.Load(),
		Evictions:          s.met.Evictions.Load(),
		Recoveries:         s.met.Recoveries.Load(),
		SyncRounds:         s.met.SyncRounds.Load(),
		SyncApplied:        s.met.SyncApplied.Load(),
		SyncSkipped:        s.met.SyncSkipped.Load(),
		SyncFailed:         s.met.SyncFailed.Load(),
		ScrubRounds:        s.met.ScrubRounds.Load(),
		ScrubFailed:        s.met.ScrubFailed.Load(),
		ScrubRepaired:      s.met.ScrubRepaired.Load(),
		CorruptSidelined:   s.met.CorruptSidelined.Load(),
		QuarantineRepairs:  s.met.QuarantineRepairs.Load(),
		SyncDigestReject:   s.met.SyncDigestReject.Load(),
		SyncDeltaPulls:     s.met.SyncDeltaPulls.Load(),
		SyncDeltaBytes:     s.met.SyncDeltaBytes.Load(),
		SyncDeltaFullBytes: s.met.SyncDeltaFullBytes.Load(),
		SyncLogPulls:       s.met.SyncLogPulls.Load(),
		SyncLogGone:        s.met.SyncLogGone.Load(),
		WALSnapshotFailed:  s.met.WALSnapshotFailed.Load(),
		Quarantined:        s.QuarantinedTenants(),
		SyncPeers:          s.peerSyncStatus(),
		Tenants:            s.TenantNames(),
		Draining:           s.Draining(),
		Ready:              s.Ready(),
	})
}
