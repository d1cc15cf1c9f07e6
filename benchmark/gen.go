package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"graphsketch/internal/stream"
)

// benchN is the vertex universe of every bundle the benchmark drives. It is
// serve's default shape; at n=256 one tenant reached 5.8 GB RSS and did not
// finish 200k updates in 5 minutes on the 2-core sandbox this was sized on.
const benchN = 64

// rng is splitmix64. The generator owns its randomness so that a change to
// the repository's own RNG cannot move the inputs; only G0 comes from
// stream.GNP, and the pinned schedule hashes notice if that drifts.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// generator produces the toggle stream: each update picks a uniform random
// edge and inserts it if absent, deletes it if present, so multiplicities
// stay in {0,1} (a legal dynamic stream per Definition 1) and the graph stays
// dense enough that mincut, sparsify and spanner all decode real work.
type generator struct {
	r       rng
	present [benchN * benchN]bool   // by stream.EdgeIndex
	drawn   [benchN * benchN]uint32 // batch stamp of the last draw
	stamp   uint32
}

// newGenerator seeds the stream and returns the base graph G0 =
// stream.GNP(64, 0.3, seed), which every workload preloads in set-up.
func newGenerator(seed uint64) (*generator, []stream.Update) {
	g := &generator{r: rng{s: seed}}
	g0 := stream.GNP(benchN, 0.3, seed).Updates
	for _, u := range g0 {
		g.present[stream.EdgeIndex(u.U, u.V, benchN)] = true
	}
	return g, g0
}

// pair draws a uniform random edge {u,v}, u != v.
func (g *generator) pair() (int, int) {
	u, v := g.r.intn(benchN), g.r.intn(benchN-1)
	if v >= u {
		v++
	}
	return u, v
}

// toggles returns k toggle updates on k distinct edges: edges are drawn
// without replacement inside a batch, so the batch's distinct fraction is 1
// and nothing the planner's coalescing pass does can hide kernel work.
func (g *generator) toggles(k int) []stream.Update {
	g.stamp++
	ups := make([]stream.Update, 0, k)
	for len(ups) < k {
		u, v := g.pair()
		idx := stream.EdgeIndex(u, v, benchN)
		if g.drawn[idx] == g.stamp {
			continue
		}
		g.drawn[idx] = g.stamp
		ups = append(ups, g.flip(u, v))
	}
	return ups
}

func (g *generator) flip(u, v int) stream.Update {
	idx := stream.EdgeIndex(u, v, benchN)
	g.present[idx] = !g.present[idx]
	if g.present[idx] {
		return stream.Update{U: u, V: v, Delta: 1}
	}
	return stream.Update{U: u, V: v, Delta: -1}
}

// hot returns k toggle updates cycling over only `edges` distinct edges —
// the duplicate-heavy batch the coalescing pass collapses, reported next to
// the duplicate-free one. k must be an even multiple of edges, so every edge
// ends where it started and the batch leaves any linear sketch unchanged.
func (g *generator) hot(k, edges int) []stream.Update {
	set := g.toggles(edges)
	ups := make([]stream.Update, 0, k)
	ups = append(ups, set...)
	for len(ups) < k {
		s := set[len(ups)%edges]
		ups = append(ups, g.flip(s.U, s.V))
	}
	return ups
}

// distinctFraction is distinct edges ÷ updates of one batch.
func distinctFraction(ups []stream.Update) float64 {
	seen := make(map[uint64]bool, len(ups))
	for _, u := range ups {
		seen[stream.EdgeIndex(u.U, u.V, benchN)] = true
	}
	return float64(len(seen)) / float64(len(ups))
}

// opKind is one step of a workload's schedule.
type opKind uint8

const (
	opIngest       opKind = iota // POST updates?at=<pos>
	opMinCut                     // GET query/mincut
	opSparsify                   // GET query/sparsify
	opSpanner                    // GET query/spanner
	opSpannerEdge                // GET query/spanner-edge?u=&v=
	opFlush                      // POST flush: snapshot now, so the next restarts replay a fixed suffix
	opRestart                    // SIGKILL the primary, restart on the same directory, wait ready
	opCatchup                    // start a fresh replica, wait until it holds the primary's position
	opAwaitReplica               // wait until the replica holds the primary's position
)

var opNames = [...]string{"ingest", "mincut", "sparsify", "spanner", "spanner-edge", "flush", "restart", "catchup", "await-replica"}

func (k opKind) String() string { return opNames[k] }

func (k opKind) isQuery() bool { return k >= opMinCut && k <= opSpannerEdge }

// phase says what an op's timing feeds.
type phase uint8

const (
	phaseSetup phase = iota // G0 preload; timed as setup_s
	phaseWarm               // the server's heap grows to its working size; checked, not timed
	phaseMain               // feeds the ack and query metrics
	phaseTail               // recovery and replication; ingest here only positions the WAL
)

// op is one scheduled step. pos and want are filled by the oracle: the
// stream position after an ingest (or at a query), and the answer the oracle
// bundle gives at that position.
type op struct {
	kind  opKind
	phase phase
	ups   []stream.Update // opIngest
	u, v  int             // opSpannerEdge
	pos   int
	want  *answers
}

// shape fixes a workload's operation counts. Run length is a count, never a
// duration, so counts repeat exactly; --seconds only scales them.
type shape struct {
	name  string
	fsync string // serve -fsync policy
	// Main phase: cycles × (batches ingests of batch updates, then a cold
	// mincut/sparsify/spanner triple on the fresh epoch, then warm rounds of
	// mincut, sparsify, spanner, spanner-edge on the same epoch).
	batch, batches, cycles, warm int
	// Tail: one restart on whatever log the main phase left (a new process
	// counts its snapshot interval from zero, so no automatic snapshot can
	// land in what follows), a flush, suffix ingests of 256, then the timed
	// restarts — each replaying that same 1,536-update suffix — then
	// catchups (a fresh replica's full pull) and lag cycles (256 toggles into
	// the primary, wait for the replica's delta pull; the first is not timed).
	restarts, catchups, lags int
	// setups is how often set-up (spawn → /readyz → G0 preloaded) is timed;
	// setup_s is the median and the last one carries the workload.
	setups int
}

// suffixBatches × 256 updates follow the flush, so every timed restart
// replays the same 1,536-update WAL suffix on top of the same snapshot.
const suffixBatches = 6

// warmBatches × 256 updates, a cold triple and a warm round open the main
// phase untimed: each batch publishes an epoch, and after four the server
// holds the live bundle, two epoch clones and their garbage — the heap it
// keeps for the rest of the run.
const warmBatches = 4

// The warm pool covers the most memory the servers hold at once: a primary
// and a replica of about 1 GB each, and their page cache. The traced run
// holds three primaries (the child and the two in-process replays) and two
// replicas.
const (
	poolSize       = 2560 << 20
	tracedPoolSize = 4096 << 20
)

// shapes are the counts at --seconds 20 (see README: sized so one run of
// any workload takes about 20 s at the commit that added the benchmark, on
// 2 cores).
var shapes = []shape{
	{name: "ingest-bulk", fsync: "interval", batch: 256, batches: 2, cycles: 22, warm: 6, restarts: 4, catchups: 4, lags: 8, setups: 3},
	{name: "ingest-trickle", fsync: "always", batch: 8, batches: 32, cycles: 7, warm: 22, restarts: 4, catchups: 4, lags: 8, setups: 3},
	{name: "query-mixed", fsync: "interval", batch: 256, batches: 1, cycles: 30, warm: 7, restarts: 4, catchups: 4, lags: 8, setups: 3},
	{name: "recover-replicate", fsync: "interval", batch: 256, batches: 1, cycles: 16, warm: 8, restarts: 6, catchups: 6, lags: 11, setups: 3},
}

func shapeByName(name string) (shape, bool) {
	for _, s := range shapes {
		if s.name == name {
			return s, true
		}
	}
	return shape{}, false
}

// scaled multiplies the repeat counts by f, keeping at least floor of each
// (three for a median to exist).
func (s shape) scaled(f float64, floor int) shape {
	mul := func(n int) int { return max(int(float64(n)*f+0.5), floor) }
	s.cycles, s.restarts, s.catchups, s.lags = mul(s.cycles), mul(s.restarts), mul(s.catchups), mul(s.lags)
	return s
}

// tiny is the smoke test's scale: every kind of step once.
func (s shape) tiny() shape {
	s.cycles, s.warm, s.restarts, s.catchups, s.lags, s.setups = 1, 1, 1, 1, 2, 1
	return s
}

// schedule is one workload's complete, seeded input.
type schedule struct {
	shape shape
	seed  uint64
	ops   []op
	// hot is the duplicate-heavy kernel batch (256 updates over 16 edges),
	// drawn after every op so it never perturbs the op stream.
	hot []stream.Update
	// final is the oracle bundle's compact payload after every op.
	final []byte
}

// buildSchedule generates the workload's op list from the seed. The server
// only ever sees these generated bytes.
func buildSchedule(s shape, seed uint64) *schedule {
	g, g0 := newGenerator(seed)
	sc := &schedule{shape: s, seed: seed}
	add := func(p phase, k opKind) { sc.ops = append(sc.ops, op{kind: k, phase: p}) }
	ingest := func(p phase, k int) {
		sc.ops = append(sc.ops, op{kind: opIngest, phase: p, ups: g.toggles(k)})
	}
	queries := func(p phase, warm int) {
		for _, k := range []opKind{opMinCut, opSparsify, opSpanner} {
			add(p, k)
		}
		for i := 0; i < warm; i++ {
			add(p, opMinCut)
			add(p, opSparsify)
			add(p, opSpanner)
			u, v := g.pair()
			sc.ops = append(sc.ops, op{kind: opSpannerEdge, phase: p, u: u, v: v})
		}
	}

	// G0 goes in at batch 256 with the remainder folded into the last batch:
	// every batch then crosses EpochEvery, so set-up ends on a fresh epoch
	// and an 8-update workload's epoch rolls line up with its cycles.
	for at := 0; at < len(g0); {
		end := at + 256
		if len(g0)-end < 256 {
			end = len(g0)
		}
		sc.ops = append(sc.ops, op{kind: opIngest, phase: phaseSetup, ups: g0[at:end]})
		at = end
	}
	for b := 0; b < warmBatches; b++ {
		ingest(phaseWarm, 256)
	}
	queries(phaseWarm, 1)
	for c := 0; c < s.cycles; c++ {
		for b := 0; b < s.batches; b++ {
			ingest(phaseMain, s.batch)
		}
		queries(phaseMain, s.warm)
	}
	add(phaseTail, opRestart)
	add(phaseTail, opFlush)
	for b := 0; b < suffixBatches; b++ {
		ingest(phaseTail, 256)
	}
	for i := 0; i < s.restarts; i++ {
		add(phaseTail, opRestart)
	}
	for i := 0; i < s.catchups; i++ {
		add(phaseTail, opCatchup)
	}
	for i := 0; i < s.lags; i++ {
		ingest(phaseTail, 256)
		add(phaseTail, opAwaitReplica)
	}
	sc.hot = g.hot(256, 16)
	return sc
}

// hash is the SHA-256 of the schedule's canonical encoding; the seed-1
// hashes are pinned in a test so input drift cannot pass as a speed-up.
func (sc *schedule) hash() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeUps := func(ups []stream.Update) {
		put(int64(len(ups)))
		for _, u := range ups {
			put(int64(u.U))
			put(int64(u.V))
			put(u.Delta)
		}
	}
	for _, o := range sc.ops {
		h.Write([]byte{byte(o.kind), byte(o.phase)})
		switch o.kind {
		case opIngest:
			writeUps(o.ups)
		case opSpannerEdge:
			put(int64(o.u))
			put(int64(o.v))
		}
	}
	writeUps(sc.hot)
	return hex.EncodeToString(h.Sum(nil))
}

// mainDistinctFraction is the mean distinct fraction of the main-phase
// ingest batches (1 by construction; reported, not assumed).
func (sc *schedule) mainDistinctFraction() float64 {
	sum, n := 0.0, 0
	for _, o := range sc.ops {
		if o.kind == opIngest && o.phase == phaseMain {
			sum += distinctFraction(o.ups)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (sc *schedule) String() string {
	counts := map[opKind]int{}
	updates := 0
	for _, o := range sc.ops {
		counts[o.kind]++
		updates += len(o.ups)
	}
	return fmt.Sprintf("%s seed=%d ops=%d updates=%d ingests=%d queries=%d restarts=%d catchups=%d lag-cycles=%d sha256=%s",
		sc.shape.name, sc.seed, len(sc.ops), updates, counts[opIngest],
		counts[opMinCut]+counts[opSparsify]+counts[opSpanner]+counts[opSpannerEdge],
		counts[opRestart], counts[opCatchup], counts[opAwaitReplica], sc.hash())
}
