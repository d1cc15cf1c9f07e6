package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"graphsketch/internal/service"
)

// stepTimeout bounds any single wait (ready, catch-up, lag).
const stepTimeout = 60 * time.Second

// results are one untraced run's raw samples; latencies in milliseconds.
type results struct {
	attempted, failed int

	setupS []float64

	ack []float64 // main-phase ingest acks
	// rate is updates ÷ seconds inside the ingest calls of each main-phase
	// cycle: the median is the throughput, and one stalled cycle moves it no
	// further than one stalled ack moves ack_p50_ms.
	rate       []float64
	cycUpdates int
	cycSeconds float64
	cold       [3][]float64 // mincut, sparsify, spanner on a fresh epoch
	warm       []float64    // every query answered from an epoch's memo

	recovery, catchup, lag []float64

	syncBytes, lagUpdates        int64
	durableBytes, durableUpdates int
	rssPeakMB, rssEndMB          float64
	cpuSeconds                   float64
	updates                      int // every update the primary acked
	fullPulls                    int64
}

// fail records one failed operation. The op still counts as attempted, and
// it is left out of no denominator.
func (r *results) fail(o *op, err error) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "FAILED %s at position %d: %v\n", o.kind, o.pos, err)
	}
}

// session drives one workload's schedule against real serve children, as a
// closed loop: one client goroutine, and the next request is sent only after
// the previous reply — the position-addressed ingest protocol allows nothing
// else for a single tenant's feeder.
type session struct {
	env   *env
	sched *schedule
	res   *results

	a, b *node
	pos  int
	// restarts counts opRestart steps; the first replays whatever log the
	// main phase left and is not a recovery sample.
	restarts int
	// lastEpoch is the epoch that last answered mincut, sparsify, and
	// spanner/spanner-edge (which share one memo). A reply from another
	// epoch paid for a decode: cold.
	lastEpoch [3]uint64
	lastAck   time.Time
	// The replica's sync counters right after its catch-up; the lag phase's
	// bytes are counted from here.
	syncBase service.MetricsResponse
}

// runSession runs the whole schedule against real children.
func runSession(e *env, sc *schedule) (*results, error) {
	s := &session{env: e, sched: sc, res: &results{}}
	defer s.close()
	start := time.Now()
	if err := s.setup(); err != nil {
		return nil, err
	}
	setupDone := time.Now()
	tailAt := setupDone
	for i := range sc.ops {
		o := &sc.ops[i]
		if o.phase == phaseSetup {
			continue
		}
		if o.phase == phaseTail && tailAt == setupDone {
			tailAt = time.Now()
			if err := s.recordDurable(); err != nil {
				return nil, err
			}
		}
		if o.kind != opIngest {
			s.closeCycle()
		}
		if err := s.step(i); err != nil {
			return nil, err
		}
	}
	if err := s.finish(); err != nil {
		return nil, err
	}
	fmt.Printf("# wall: set-up ×%d %.1fs, main cycles %.1fs, restarts and replication %.1fs\n", sc.shape.setups,
		setupDone.Sub(start).Seconds(), tailAt.Sub(setupDone).Seconds(), time.Since(tailAt).Seconds())
	fmt.Printf("# samples: set-up s %.3f | recovery ms %.0f | catch-up ms %.0f | lag ms %.0f (%d rounds fell back to a full pull)\n",
		s.res.setupS, s.res.recovery, s.res.catchup, s.res.lag, s.res.fullPulls)
	return s.res, nil
}

// closeCycle files the throughput of the run of main-phase ingests that just
// ended.
func (s *session) closeCycle() {
	if s.res.cycUpdates > 0 {
		s.res.rate = append(s.res.rate, float64(s.res.cycUpdates)/s.res.cycSeconds)
		s.res.cycUpdates, s.res.cycSeconds = 0, 0
	}
}

// close retires whatever children are still alive.
func (s *session) close() {
	for _, n := range []*node{s.a, s.b} {
		if n != nil {
			s.retire(n)
		}
	}
	s.a, s.b = nil, nil
}

// stop kills a child and folds its memory and CPU into the results.
func (s *session) stop(n *node) {
	n.kill()
	s.res.rssPeakMB = max(s.res.rssPeakMB, n.peakRSSMB)
	s.res.rssEndMB = n.endRSSMB
	s.res.cpuSeconds += n.cpuSeconds
}

// retire stops a child for good and removes its data directory.
func (s *session) retire(n *node) {
	s.stop(n)
	os.RemoveAll(n.dir)
}

// setup times spawn → /readyz → G0 preloaded, shape.setups times on fresh
// directories. `go build` is not part of it.
func (s *session) setup() error {
	for rep := 0; rep < s.sched.shape.setups; rep++ {
		if s.a != nil {
			s.retire(s.a)
			s.a = nil
		}
		start := time.Now()
		n, err := s.env.spawn(s.env.newDir("primary"), s.sched.shape.fsync, "")
		if err != nil {
			return err
		}
		s.a = n
		if err := n.waitReady(time.Now().Add(stepTimeout)); err != nil {
			return err
		}
		s.pos = 0
		for i := range s.sched.ops {
			o := &s.sched.ops[i]
			if o.phase != phaseSetup {
				break
			}
			s.res.attempted++
			if _, err := s.ingest(o); err != nil {
				return err
			}
		}
		s.res.setupS = append(s.res.setupS, time.Since(start).Seconds())
	}
	return nil
}

// ingest sends one batch at the expected position and checks the ack.
func (s *session) ingest(o *op) (time.Duration, error) {
	start := time.Now()
	acked, err := s.a.c.Ingest(tenantName, s.pos, o.ups)
	d := time.Since(start)
	s.lastAck = start.Add(d)
	if err != nil {
		s.res.fail(o, err)
		return d, err
	}
	if acked != s.pos+len(o.ups) || acked != o.pos {
		err := fmt.Errorf("ack %d, want %d", acked, o.pos)
		s.res.fail(o, err)
		return d, err
	}
	s.pos = acked
	s.res.updates += len(o.ups)
	return d, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// step executes op i of the schedule. A returned error aborts the run (the
// position protocol cannot continue past a lost ingest or a dead server); a
// wrong answer is counted as failed and the run goes on.
func (s *session) step(i int) error {
	s.res.attempted++
	if err := s.exec(&s.sched.ops[i]); err != nil {
		return fmt.Errorf("%s #%d: %w", s.sched.ops[i].kind, i, err)
	}
	return nil
}

func (s *session) exec(o *op) error {
	switch o.kind {
	case opIngest:
		d, err := s.ingest(o)
		if err != nil {
			return err
		}
		if o.phase == phaseMain {
			s.res.ack = append(s.res.ack, ms(d))
			s.res.cycUpdates += len(o.ups)
			s.res.cycSeconds += d.Seconds()
		}
	case opMinCut, opSparsify, opSpanner, opSpannerEdge:
		s.query(o)
	case opFlush:
		if _, err := s.a.c.Flush(tenantName); err != nil {
			s.res.fail(o, err)
			return err
		}
	case opRestart:
		return s.restart(o)
	case opCatchup:
		return s.catchup(o)
	case opAwaitReplica:
		return s.awaitReplica(o)
	}
	return nil
}

// query runs one read and files its latency as cold or warm by the epoch
// that served it.
func (s *session) query(o *op) {
	var meta service.QueryMeta
	var err error
	start := time.Now()
	switch o.kind {
	case opMinCut:
		var r service.MinCutResponse
		if r, err = s.a.c.MinCut(tenantName); err == nil {
			meta, err = r.QueryMeta, checkMinCut(r, o.want)
		}
	case opSparsify:
		var r service.SparsifyResponse
		if r, err = s.a.c.Sparsify(tenantName); err == nil {
			meta, err = r.QueryMeta, checkSparsify(r, o.want)
		}
	case opSpanner:
		var r service.SpannerResponse
		if r, err = s.a.c.Spanner(tenantName); err == nil {
			meta, err = r.QueryMeta, checkSpanner(r, o.want)
		}
	case opSpannerEdge:
		var r service.SpannerEdgeResponse
		if r, err = s.a.c.SpannerEdge(tenantName, o.u, o.v); err == nil {
			meta, err = r.QueryMeta, checkSpannerEdge(r, o)
		}
	}
	d := ms(time.Since(start))
	if err != nil {
		s.res.fail(o, err)
		return
	}
	memo := min(int(o.kind-opMinCut), 2)
	cold := meta.Epoch != s.lastEpoch[memo]
	s.lastEpoch[memo] = meta.Epoch
	switch {
	case o.phase != phaseMain:
	case !cold:
		s.res.warm = append(s.res.warm, d)
	case o.kind != opSpannerEdge:
		s.res.cold[memo] = append(s.res.cold[memo], d)
	}
}

// recordDurable reads the WAL's byte split where the main phase ends, before
// the tail's flush rewrites it.
func (s *session) recordDurable() error {
	fp, err := s.a.c.Footprint(tenantName)
	if err != nil {
		return fmt.Errorf("footprint: %w", err)
	}
	s.res.durableBytes = fp.WALLogBytes + fp.WALSnapshotBytes
	s.res.durableUpdates = fp.WALDurable
	return nil
}

// restart SIGKILLs the primary, restarts it on the same directory and times
// kill → ready at the acked position.
func (s *session) restart(o *op) error {
	dir := s.a.dir
	start := time.Now()
	s.stop(s.a)
	n, err := s.env.spawn(dir, s.sched.shape.fsync, "")
	if err != nil {
		return err
	}
	s.a = n
	if err := n.waitReady(time.Now().Add(stepTimeout)); err != nil {
		return err
	}
	got, err := n.c.Position(tenantName)
	d := time.Since(start)
	if err != nil {
		return err
	}
	if got != s.pos {
		err := fmt.Errorf("recovered at %d, last ack was %d", got, s.pos)
		s.res.fail(o, err)
		return err
	}
	if s.restarts++; s.restarts > 1 {
		s.res.recovery = append(s.res.recovery, ms(d))
	}
	s.lastEpoch = [3]uint64{} // a new process numbers its epochs from 1
	return nil
}

// catchup starts a fresh replica pulling from the primary and times spawn →
// replica at the primary's position (one full pull).
func (s *session) catchup(o *op) error {
	if s.b != nil {
		s.retire(s.b)
		s.b = nil
	}
	start := time.Now()
	n, err := s.env.spawn(s.env.newDir("replica"), s.sched.shape.fsync, s.a.url())
	if err != nil {
		return err
	}
	s.b = n
	if err := n.awaitPosition(s.pos, time.Now().Add(stepTimeout)); err != nil {
		s.res.fail(o, err)
		return err
	}
	s.res.catchup = append(s.res.catchup, ms(time.Since(start)))
	s.syncBase, err = n.c.Metrics()
	return err
}

// checkReplica compares the two nodes' payloads.
func (s *session) checkReplica(o *op) error {
	pa, err := s.a.c.Payload(tenantName)
	if err != nil {
		return err
	}
	pb, err := s.b.c.Payload(tenantName)
	if err != nil {
		return err
	}
	if !bytes.Equal(pa, pb) {
		s.res.fail(o, fmt.Errorf("replica payload (%d bytes) differs from the primary's (%d bytes)", len(pb), len(pa)))
	}
	return nil
}

// awaitReplica times the primary's last ack → replica at the same position
// (a delta pull), and counts the updates the replica's pulls carried. The
// first wait is not a sample — the replica's heap is still growing to hold a
// second epoch, which no later round pays for — and compares the replica's
// payload, still as its full pull left it plus one delta, with the primary's.
func (s *session) awaitReplica(o *op) error {
	if err := s.b.awaitPosition(s.pos, time.Now().Add(stepTimeout)); err != nil {
		s.res.fail(o, err)
		return err
	}
	d := ms(time.Since(s.lastAck))
	first := s.res.lagUpdates == 0
	s.res.lagUpdates += 256
	if first {
		return s.checkReplica(o)
	}
	s.res.lag = append(s.res.lag, d)
	return nil
}

// finish checks both nodes' final payloads against the oracle and reads the
// replica's sync counters.
func (s *session) finish() error {
	check := &op{kind: opCatchup, pos: s.pos}
	s.res.attempted++
	for _, n := range []*node{s.a, s.b} {
		sealed, err := n.c.Payload(tenantName)
		if err != nil {
			return err
		}
		got, err := service.DecodeSealed(sealed)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, s.sched.final) {
			s.res.fail(check, fmt.Errorf("final payload on %s (%d bytes) differs from the oracle bundle's (%d bytes)", n.addr, len(got), len(s.sched.final)))
		}
	}
	met, err := s.b.c.Metrics()
	if err != nil {
		return err
	}
	s.res.syncBytes = met.SyncDeltaBytes - s.syncBase.SyncDeltaBytes
	// A lag round the delta path could not serve fell back to a full pull,
	// which the server's counters do not size; charge it the payload size.
	s.res.fullPulls = (met.SyncApplied - s.syncBase.SyncApplied) - (met.SyncDeltaPulls - s.syncBase.SyncDeltaPulls)
	s.res.syncBytes += s.res.fullPulls * int64(len(s.sched.final))
	return nil
}
