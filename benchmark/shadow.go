package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"graphsketch"
	"graphsketch/internal/runtime"
	"graphsketch/internal/service"
	"graphsketch/internal/wire"
)

// Serve's defaults, which the shadow pipeline must repeat to be the same
// computation as tenant.apply.
const (
	epochEvery    = 256
	snapshotEvery = 4096
)

// shadow performs, in the benchmark's own files and with a span around each
// public call, the steps the tenant's writer performs for every op —
// DecodeUpdates → DiskWAL.Append → Bundle.UpdateBatch → every 4096 updates
// DiskWAL.Snapshot → every 256 Bundle.Manifest + Bundle.Clone →
// Bundle.ResidentBytes — then the queries on the clone, and the marshal,
// merge, recover and install calls behind restarts and replication. It feeds
// the same batches to bare facade sketches to split bundle time by core
// package. Its bundle must end byte-identical to the oracle's, so it is the
// same computation; the budget check then notices a shadow that has drifted
// from what the server does.
type shadow struct {
	tr  *tracer
	sc  *schedule
	env *env

	dir       string
	cfg       runtime.DiskConfig
	wal       *runtime.DiskWAL
	live      *service.Bundle
	epoch     *service.Bundle // the published clone queries run on
	epochPos  int
	sinceSnap int
	sincePub  int
	pos       int

	mc *graphsketch.MinCutSketch
	sp *graphsketch.SimpleSparsifier

	replica    *service.Bundle
	replicaWAL *runtime.DiskWAL
	replicaDir string

	epochs, replayUpdates, payloadBytes, manifestBytes int
	diffShare                                          []float64
	logBytesPerUpdate                                  float64
	snapshotBytes                                      int
	answered                                           [3]int // position each cold query last ran at
}

func newShadow(e *env, sc *schedule, tr *tracer) (*shadow, error) {
	policy, err := runtime.ParseFsyncPolicy(sc.shape.fsync)
	if err != nil {
		return nil, err
	}
	s := &shadow{tr: tr, sc: sc, env: e, dir: e.newDir("shadow-primary"), cfg: runtime.DiskConfig{Policy: policy, Every: 64},
		mc:       graphsketch.NewMinCutSketchK(bundleConfig.N, bundleConfig.K, bundleConfig.Seed),
		sp:       graphsketch.NewSimpleSparsifier(bundleConfig.N, bundleConfig.Eps, bundleConfig.Seed),
		answered: [3]int{-1, -1, -1}}
	return s, s.open()
}

func newBundle() runtime.Sketch { return service.NewBundle(bundleConfig) }

// open is Server.Tenant's load path: open the WAL, recover the bundle,
// account it, publish the first epoch.
func (s *shadow) open() error {
	var err error
	s.tr.do("runtime.wal_open", func() { s.wal, err = runtime.OpenDiskWAL(s.dir, bundleConfig.N, s.cfg) })
	if err != nil {
		return err
	}
	s.replayUpdates = s.wal.ReplayUpdates()
	var sk runtime.Sketch
	s.tr.do("runtime.wal_recover", func() { sk, s.pos, err = s.wal.Recover(newBundle) })
	if err != nil {
		return err
	}
	s.live = sk.(*service.Bundle)
	s.tr.do("service.bundle_resident_bytes", func() { s.live.ResidentBytes() })
	s.sinceSnap, s.sincePub = 0, 0
	return s.publish()
}

func (s *shadow) publish() error {
	var err error
	s.tr.do("service.bundle_manifest", func() { _, err = s.live.Manifest() })
	s.tr.do("service.bundle_clone", func() { s.epoch = s.live.Clone() })
	s.epochPos = s.pos
	s.epochs++
	return err
}

func (s *shadow) close() {
	s.wal.Close()
	if s.replicaWAL != nil {
		s.replicaWAL.Close()
	}
	os.RemoveAll(s.dir)
	os.RemoveAll(s.replicaDir)
}

// step executes op i of the schedule.
func (s *shadow) step(i int) error {
	o := &s.sc.ops[i]
	s.tr.op = i
	if o.phase == phaseTail && s.sc.ops[i-1].phase == phaseMain && s.snapshotBytes == 0 {
		// The WAL as the main phase left it, before the tail's flush.
		if n := s.wal.ReplayUpdates(); n > 0 {
			s.logBytesPerUpdate = float64(s.wal.LogBytes()) / float64(n)
		}
		s.snapshotBytes = s.wal.SnapshotBytes()
	}
	var err error
	switch o.kind {
	case opIngest:
		err = s.ingest(o)
	case opMinCut, opSparsify, opSpanner:
		err = s.coldQuery(o)
	case opFlush:
		if err = s.publish(); err == nil {
			s.tr.do("runtime.wal_snapshot", func() { err = s.wal.Snapshot(s.live) })
		}
	case opRestart:
		// SIGKILL never closes the WAL; closing here only frees the handle.
		s.wal.Close()
		want := s.pos
		if err = s.open(); err == nil && s.pos != want {
			err = fmt.Errorf("shadow recovery at %d, want %d", s.pos, want)
		}
	case opCatchup:
		err = s.fullSync()
	case opAwaitReplica:
		err = s.deltaSync()
	}
	if err != nil {
		return fmt.Errorf("shadow %s #%d: %w", o.kind, i, err)
	}
	return nil
}

// finish requires the shadow's bundles to be the oracle's, byte for byte.
func (s *shadow) finish() error {
	s.tr.op = -1
	for _, b := range []*service.Bundle{s.live, s.replica} {
		var got []byte
		var err error
		s.tr.do("service.bundle_marshal_compact", func() { got, err = b.MarshalBinaryCompact() })
		if err != nil {
			return err
		}
		if !bytes.Equal(got, s.sc.final) {
			return errors.New("shadow pipeline's final bundle differs from the oracle's: it is not the server's computation")
		}
	}
	return nil
}

// ingest is handleIngest's decode plus tenant.apply, in apply's order.
func (s *shadow) ingest(o *op) error {
	var enc []byte
	s.tr.do("service.encode_updates", func() { enc = service.EncodeUpdates(o.ups) })
	ups := o.ups
	var err error
	s.tr.do("service.decode_updates", func() { ups, err = service.DecodeUpdates(enc) })
	if err != nil {
		return err
	}
	apply := s.tr.begin("shadow.apply")
	s.tr.do("runtime.wal_append", func() { err = s.wal.Append(ups) })
	if err != nil {
		return err
	}
	s.tr.do("service.bundle_update_batch", func() { s.live.UpdateBatch(ups) })
	s.pos += len(ups)
	s.sinceSnap += len(ups)
	s.sincePub += len(ups)
	if s.sinceSnap >= snapshotEvery {
		s.tr.do("runtime.wal_snapshot", func() { err = s.wal.Snapshot(s.live) })
		if err != nil {
			return err
		}
		s.sinceSnap = 0
	}
	published := s.sincePub >= epochEvery
	if published {
		if err := s.publish(); err != nil {
			return err
		}
		s.sincePub = 0
	}
	s.tr.do("service.bundle_resident_bytes", func() { s.live.ResidentBytes() })
	s.tr.end(apply)

	// The same batch into the bare facade sketches, and the clone and
	// footprint calls the bundle forwards to them.
	s.tr.do("core.mincut_update_batch", func() { s.mc.UpdateBatch(ups) })
	s.tr.do("core.sparsify_update_batch", func() { s.sp.UpdateBatch(ups) })
	if published {
		// Footprint runs on every op in the bundle; once per epoch is enough
		// to size the two halves of it.
		s.tr.do("core.mincut_clone", func() { s.mc.Clone() })
		s.tr.do("core.sparsify_clone", func() { s.sp.Clone() })
		s.tr.do("core.mincut_footprint", func() { s.mc.Footprint() })
		s.tr.do("core.sparsify_footprint", func() { s.sp.Footprint() })
	}
	return nil
}

// coldQuery runs the first query of each kind at a position on the epoch
// clone — Bundle.MinCut, Sparsify and Spanner forward straight into
// core/mincut, core/sparsify and core/spanner, so the spans are the core
// decode. Later queries at the position are memo hits and cost nothing here.
func (s *shadow) coldQuery(o *op) error {
	k := int(o.kind - opMinCut)
	if s.answered[k] == s.pos {
		return nil
	}
	s.answered[k] = s.pos
	if s.epochPos != s.pos {
		return fmt.Errorf("epoch at %d, durable position %d", s.epochPos, s.pos)
	}
	var err error
	switch o.kind {
	case opMinCut:
		var r graphsketch.MinCutResult
		s.tr.do("core.mincut_decode", func() { r, err = s.epoch.MinCut() })
		if err == nil && r != o.want.mincut {
			err = fmt.Errorf("mincut %+v, oracle %+v", r, o.want.mincut)
		}
	case opSparsify:
		var g *graphsketch.Graph
		s.tr.do("core.sparsify_decode", func() { g, err = s.epoch.Sparsify() })
		if err == nil && (g.NumEdges() != o.want.sparsEdges || g.TotalWeight() != o.want.sparsWeight) {
			err = fmt.Errorf("sparsifier %d edges, oracle %d", g.NumEdges(), o.want.sparsEdges)
		}
	case opSpanner:
		var r graphsketch.SpannerResult
		s.tr.do("core.spanner_build", func() { r = s.epoch.Spanner() })
		if r.Spanner.NumEdges() != o.want.spanner.Spanner.NumEdges() {
			err = fmt.Errorf("spanner %d edges, oracle %d", r.Spanner.NumEdges(), o.want.spanner.Spanner.NumEdges())
		}
	}
	return err
}

// fullSync is a fresh replica's first round: the primary's PayloadBanks(nil)
// and the replica's SyncApply, call by call.
func (s *shadow) fullSync() error {
	if s.replicaWAL != nil {
		s.replicaWAL.Close()
		os.RemoveAll(s.replicaDir)
	}
	s.replicaDir = s.env.newDir("shadow-replica")
	var err error
	if s.replicaWAL, err = runtime.OpenDiskWAL(s.replicaDir, bundleConfig.N, s.cfg); err != nil {
		return err
	}
	var payload, sealed []byte
	var man wire.Manifest
	s.tr.do("service.bundle_marshal_banks", func() { payload, err = s.live.MarshalBanks(nil) })
	if err != nil {
		return err
	}
	s.tr.do("service.bundle_manifest", func() { man, err = s.live.Manifest() })
	if err != nil {
		return err
	}
	s.manifestBytes = len(wire.EncodeManifest(man))
	s.tr.do("wire.seal", func() { sealed = wire.Seal(payload) })
	s.payloadBytes = len(sealed)

	s.tr.do("wire.open", func() { payload, _, err = wire.Open(sealed) })
	if err != nil {
		return err
	}
	fresh := service.NewBundle(bundleConfig)
	s.tr.do("service.bundle_merge_bytes", func() { err = fresh.MergeBytes(payload) })
	if err != nil {
		return err
	}
	var got wire.Manifest
	s.tr.do("service.bundle_manifest", func() { got, err = fresh.Manifest() })
	if err != nil {
		return err
	}
	if got.Root() != man.Root() {
		return errors.New("replica root differs from the primary's after a full install")
	}
	s.tr.do("runtime.wal_install_snapshot", func() { err = s.replicaWAL.InstallSnapshot(sealed, s.pos) })
	if err != nil {
		return err
	}
	s.tr.do("service.bundle_manifest", func() { _, err = fresh.Manifest() })
	s.tr.do("service.bundle_clone", func() { fresh.Clone() })
	s.replica = fresh
	return err
}

// deltaSync is a later round: diff the manifests, move only the diverged
// banks, and install them as SyncApplyDelta does.
func (s *shadow) deltaSync() error {
	var err error
	var man, local wire.Manifest
	if man, err = s.live.Manifest(); err != nil {
		return err
	}
	if local, err = s.replica.Manifest(); err != nil {
		return err
	}
	diverged := local.Diff(man)
	s.diffShare = append(s.diffShare, float64(len(diverged))/float64(s.live.NumBanks()))
	var payload, sealed []byte
	s.tr.do("service.bundle_marshal_banks", func() { payload, err = s.live.MarshalBanks(diverged) })
	if err != nil {
		return err
	}
	s.tr.do("wire.seal", func() { sealed = wire.Seal(payload) })
	s.tr.do("wire.open", func() { payload, _, err = wire.Open(sealed) })
	if err != nil {
		return err
	}
	s.tr.do("service.bundle_install_banks", func() { err = s.replica.InstallBanks(payload) })
	if err != nil {
		return err
	}
	var got wire.Manifest
	s.tr.do("service.bundle_manifest", func() { got, err = s.replica.Manifest() })
	if err != nil {
		return err
	}
	if got.Root() != man.Root() {
		return errors.New("replica root differs from the primary's after a delta install")
	}
	var full []byte
	s.tr.do("service.bundle_marshal_compact", func() { full, err = s.replica.MarshalBinaryCompact() })
	if err != nil {
		return err
	}
	s.tr.do("wire.seal", func() { sealed = wire.Seal(full) })
	s.tr.do("runtime.wal_install_snapshot", func() { err = s.replicaWAL.InstallSnapshot(sealed, s.pos) })
	if err != nil {
		return err
	}
	s.tr.do("service.bundle_manifest", func() { _, err = s.replica.Manifest() })
	s.tr.do("service.bundle_clone", func() { s.replica.Clone() })
	return err
}
