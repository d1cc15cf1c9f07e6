package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"graphsketch/internal/runtime"
	"graphsketch/internal/service"
)

// inproc replays a schedule against an in-process service.Server with the
// same Config as the child's flags, one span around each public call. The
// difference between the child's HTTP latency and these spans is what
// cmd/gsketch and net/http cost; the difference between these spans and the
// shadow pipeline's is what the writer loop (queue hop, admit, reply) costs.
type inproc struct {
	tr    *tracer
	sc    *schedule
	cfg   service.Config
	dirB  func() string
	a, b  *service.Server
	aHTTP *httptest.Server // the peer endpoint the replica's probes and pulls go to
	peer  *service.Client
	pos   int

	lastEpoch                              [3]uint64
	ingestOps, ingestUpdates, ingestFailed int64
	queryOps, queryFailed, syncRounds      int
	payloadBytes                           int
	deltaBytes, deltaFullBytes             int64
}

func newInproc(e *env, sc *schedule, tr *tracer) (*inproc, error) {
	policy, err := runtime.ParseFsyncPolicy(sc.shape.fsync)
	if err != nil {
		return nil, err
	}
	x := &inproc{tr: tr, sc: sc, dirB: func() string { return e.newDir("inproc-replica") }}
	// serve's flag defaults: -fsync-every 64, and Queue, SnapshotEvery and
	// EpochEvery left to Config's own defaults (64, 4096, 256); the
	// children's -query-timeout.
	x.cfg = service.Config{Dir: e.newDir("inproc-primary"), Bundle: bundleConfig, Fsync: policy, FsyncEvery: 64, QueryTimeout: time.Minute}
	return x, x.open()
}

// open starts (or, after kill, restarts) the primary on its directory.
func (x *inproc) open() error {
	var err error
	if x.a, err = service.NewServer(x.cfg); err != nil {
		return err
	}
	x.tr.do("service.preload", func() { err = x.a.Preload() })
	if err != nil {
		return err
	}
	x.aHTTP = httptest.NewServer(x.a.Handler())
	x.peer = &service.Client{Base: x.aHTTP.URL, Attempts: 1}
	return nil
}

// kill is the in-process SIGKILL: writers abandon their WALs mid-flight.
func (x *inproc) kill() {
	m := x.a.Metrics()
	x.ingestOps += m.IngestBatches.Load()
	x.ingestUpdates += m.IngestUpdates.Load()
	x.ingestFailed += m.IngestRejected.Load()
	x.aHTTP.Close()
	x.a.Kill()
}

// close stops both servers and drops them, keeping only the counters.
func (x *inproc) close() {
	x.kill()
	x.dropReplica()
	os.RemoveAll(x.cfg.Dir)
	x.a, x.aHTTP, x.peer = nil, nil, nil
}

func (x *inproc) dropReplica() {
	if x.b == nil {
		return
	}
	m := x.b.Metrics()
	x.deltaBytes += m.SyncDeltaBytes.Load()
	x.deltaFullBytes += m.SyncDeltaFullBytes.Load()
	x.b.Kill()
	os.RemoveAll(x.b.Config().Dir)
	x.b = nil
}

// step executes op i of the schedule.
func (x *inproc) step(i int) error {
	ctx := context.Background()
	o := &x.sc.ops[i]
	x.tr.op = i
	var err error
	switch o.kind {
	case opIngest:
		var acked int
		x.tr.do("service.server_ingest", func() { acked, err = x.a.Ingest(ctx, tenantName, x.pos, o.ups) })
		if err == nil && acked != o.pos {
			err = fmt.Errorf("in-process ack %d, want %d", acked, o.pos)
		}
		x.pos = acked
	case opMinCut, opSparsify, opSpanner, opSpannerEdge:
		x.queryOps++
		if err = x.query(o); err != nil {
			x.queryFailed++
		}
	case opFlush:
		// Scrubbing is time-triggered in serve; here it is a span.
		for r := 0; r < 3 && err == nil; r++ {
			var rep service.ScrubReport
			x.tr.do("service.scrub_tenant", func() { rep, err = x.a.ScrubTenant(ctx, tenantName) })
			if err == nil && !rep.Clean() {
				err = fmt.Errorf("scrub of a healthy tenant reported %+v", rep)
			}
		}
		if err == nil {
			_, err = x.a.Flush(ctx, tenantName)
		}
	case opRestart:
		x.kill()
		if err = x.open(); err == nil {
			x.lastEpoch = [3]uint64{}
			err = x.checkPosition(ctx, x.a)
		}
	case opCatchup:
		x.dropReplica()
		cfg := x.cfg
		cfg.Dir = x.dirB()
		if x.b, err = service.NewServer(cfg); err == nil {
			err = x.syncRound(ctx)
		}
	case opAwaitReplica:
		err = x.syncRound(ctx)
	}
	if err != nil {
		return fmt.Errorf("in-process %s #%d: %w", o.kind, i, err)
	}
	return nil
}

// finish checks both servers' final payloads against the oracle's.
func (x *inproc) finish() error {
	ctx := context.Background()
	x.tr.op = -1
	for _, srv := range []*service.Server{x.a, x.b} {
		sealed, _, _, err := srv.Payload(ctx, tenantName)
		if err != nil {
			return err
		}
		x.payloadBytes = len(sealed)
		got, err := service.DecodeSealed(sealed)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, x.sc.final) {
			return errors.New("in-process server's final payload differs from the oracle bundle's")
		}
	}
	return nil
}

var queryPaths = [...]string{"mincut", "sparsify", "spanner", "spanner-edge"}

// query calls the handler directly (no socket), so the span is routing, the
// epoch lock, the decode or memo hit, and the JSON encode.
func (x *inproc) query(o *op) error {
	path := fmt.Sprintf("/v1/tenants/%s/query/%s", tenantName, queryPaths[o.kind-opMinCut])
	if o.kind == opSpannerEdge {
		path += fmt.Sprintf("?u=%d&v=%d", o.u, o.v)
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	id := x.tr.begin("service.query")
	x.aHTTP.Config.Handler.ServeHTTP(rec, req)
	x.tr.end(id)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var meta service.QueryMeta
	var err error
	switch o.kind {
	case opMinCut:
		var r service.MinCutResponse
		if err = json.Unmarshal(rec.Body.Bytes(), &r); err == nil {
			meta, err = r.QueryMeta, checkMinCut(r, o.want)
		}
	case opSparsify:
		var r service.SparsifyResponse
		if err = json.Unmarshal(rec.Body.Bytes(), &r); err == nil {
			meta, err = r.QueryMeta, checkSparsify(r, o.want)
		}
	case opSpanner:
		var r service.SpannerResponse
		if err = json.Unmarshal(rec.Body.Bytes(), &r); err == nil {
			meta, err = r.QueryMeta, checkSpanner(r, o.want)
		}
	case opSpannerEdge:
		var r service.SpannerEdgeResponse
		if err = json.Unmarshal(rec.Body.Bytes(), &r); err == nil {
			meta, err = r.QueryMeta, checkSpannerEdge(r, o)
		}
	}
	if err != nil {
		return err
	}
	memo := min(int(o.kind-opMinCut), 2)
	temp := "_warm"
	if meta.Epoch != x.lastEpoch[memo] {
		x.lastEpoch[memo] = meta.Epoch
		temp = "_cold"
	}
	x.tr.spans[id].Name = "service.query_" + [...]string{"mincut", "sparsify", "spanner", "spanner_edge"}[o.kind-opMinCut] + temp
	return nil
}

// checkPosition requires srv's durable position to be the schedule's.
func (x *inproc) checkPosition(ctx context.Context, srv *service.Server) error {
	got, _, _, _, err := srv.WALStats(ctx, tenantName)
	if err == nil && got != x.pos {
		err = fmt.Errorf("in-process server at %d, want %d", got, x.pos)
	}
	return err
}

// syncRound is one anti-entropy round for the tenant, step by step as
// Syncer.syncTenant does it — probe, diff, pull the diverged banks (or
// everything), install — with a span around each public call.
func (x *inproc) syncRound(ctx context.Context) error {
	if err := x.pull(ctx); err != nil {
		return err
	}
	return x.checkPosition(ctx, x.b)
}

func (x *inproc) pull(ctx context.Context) error {
	x.syncRounds++
	var pi service.PositionInfo
	var err error
	x.tr.do("service.sync_probe", func() { pi, err = x.peer.PositionEx(tenantName) })
	if err != nil {
		return err
	}
	var sealed []byte
	var pos int
	var epoch, root uint64
	if local, _, merr := x.b.ManifestNow(ctx, tenantName, false); merr == nil && pi.HasManifest && len(local.Banks) == len(pi.Manifest.Banks) {
		if diverged := local.Diff(pi.Manifest); len(diverged) < len(local.Banks) {
			x.tr.do("service.sync_pull", func() { sealed, pos, epoch, root, err = x.peer.PayloadBanksAt(tenantName, diverged) })
			if err != nil {
				return err
			}
			x.tr.do("service.sync_install", func() { _, err = x.b.SyncApplyDelta(ctx, tenantName, pos, epoch, root, sealed) })
			if err == nil || !errors.Is(err, service.ErrDeltaInsufficient) {
				return err
			}
		}
	}
	x.tr.do("service.sync_pull", func() { sealed, pos, epoch, root, err = x.peer.PayloadBanksAt(tenantName, nil) })
	if err != nil {
		return err
	}
	x.tr.do("service.sync_install", func() { _, err = x.b.SyncApply(ctx, tenantName, pos, epoch, root, sealed) })
	return err
}
