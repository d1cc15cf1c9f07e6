package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphsketch/internal/service"
	"graphsketch/internal/stream"
)

// replicaSimOpts parameterizes the replicated-cluster chaos matrix.
type replicaSimOpts struct {
	serveSimOpts
	Nodes      int
	SyncEvery  time.Duration
	ConvergeIn time.Duration
}

// ReplicaSimRow is one replicated chaos round: a 3-node cluster of real
// serve processes, a follower partitioned away from its sync pulls, the
// primary SIGKILLed mid-ingest, the client failing over to a survivor,
// the partition healed and the dead node restarted — ending with every
// node bit-identical to the uninterrupted oracle.
type ReplicaSimRow struct {
	Seed         uint64  `json:"seed"`
	Updates      int     `json:"updates"`
	AckedAtKill  int     `json:"acked_at_kill"` // durable position when the primary died
	RefeedFrom   int     `json:"refeed_from"`   // survivor's position the client resynced to
	ReplayedB    int64   `json:"replayed_bytes"`
	FailoverMs   float64 `json:"failover_ms"` // kill → first ack from a survivor
	ConvergeMs   float64 `json:"converge_ms"` // heal+restart → all nodes identical
	SyncRounds   int64   `json:"sync_rounds"` // summed over survivors + reborn node
	SyncApplied  int64   `json:"sync_applied"`
	SyncFailed   int64   `json:"sync_failed"` // partition-era probe/pull failures
	FinalPos     []int   `json:"final_pos"`   // per node, must all equal updates
	BitIdentical bool    `json:"bit_identical"`
}

// ReplicaSimReport is the machine-readable output of `gsketch sim
// -mode=replica`; CI gates on bit-identity, exactly-once final positions,
// and bounded failover time on every row.
type ReplicaSimReport struct {
	N             int             `json:"n"`
	Nodes         int             `json:"nodes"`
	Updates       int             `json:"updates"`
	BatchSize     int             `json:"batch_size"`
	SnapshotEvery int             `json:"snapshot_every"`
	Rows          []ReplicaSimRow `json:"results"`
}

// simProxy is one direction of the partition-injection mesh: a local TCP
// forwarder a replica's sync pulls are routed through, so the sim can cut
// exactly one node's replication intake (an asymmetric partition) without
// touching its client-facing port.
type simProxy struct {
	ln      net.Listener
	target  atomic.Value // string "host:port", set once the peer is up
	blocked atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newSimProxy() (*simProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &simProxy{ln: ln, conns: make(map[net.Conn]struct{})}
	go p.accept()
	return p, nil
}

func (p *simProxy) url() string { return "http://" + p.ln.Addr().String() }

func (p *simProxy) setTarget(addr string) { p.target.Store(addr) }

// block cuts the link: new dials are refused AND established connections
// are severed, so HTTP keep-alive cannot tunnel through the partition.
func (p *simProxy) block() {
	p.blocked.Store(true)
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

func (p *simProxy) heal() { p.blocked.Store(false) }

func (p *simProxy) close() {
	p.ln.Close()
	p.block()
}

func (p *simProxy) accept() {
	for {
		src, err := p.ln.Accept()
		if err != nil {
			return
		}
		target, _ := p.target.Load().(string)
		if p.blocked.Load() || target == "" {
			src.Close()
			continue
		}
		dst, err := net.Dial("tcp", target)
		if err != nil {
			src.Close()
			continue
		}
		p.mu.Lock()
		p.conns[src] = struct{}{}
		p.conns[dst] = struct{}{}
		p.mu.Unlock()
		go p.pipe(src, dst)
		go p.pipe(dst, src)
	}
}

func (p *simProxy) pipe(dst, src net.Conn) {
	io.Copy(dst, src)
	dst.Close()
	src.Close()
	p.mu.Lock()
	delete(p.conns, dst)
	delete(p.conns, src)
	p.mu.Unlock()
}

// replicaNodeProc is one serve child plus the proxy mesh column it pulls
// its sync traffic through.
type replicaNodeProc struct {
	child *serveChild
	dir   string
	// pulls[j] is the proxy THIS node uses to reach node j (nil for self).
	pulls []*simProxy
}

// spawnReplica starts a serve child whose -peers route through the node's
// proxy column.
func spawnReplica(dir string, pulls []*simProxy, opts replicaSimOpts) (*serveChild, error) {
	var peers []string
	for _, p := range pulls {
		if p != nil {
			peers = append(peers, p.url())
		}
	}
	return spawnServe(dir, opts.serveSimOpts, "-peers", strings.Join(peers, ","), "-sync-every", opts.SyncEvery.String())
}

// simReplica runs the replicated chaos matrix. Per seed: spin up a
// Nodes-wide cluster wired through the proxy mesh, partition one follower
// away from its sync pulls, SIGKILL the primary with a batch in flight,
// fail the client over to a survivor (position-addressed resync keeps the
// stream exactly-once), finish the stream, heal the partition, restart
// the dead node on its old directory, and require all nodes to converge
// to the bit-identical oracle payload at exactly len(stream) updates.
func simReplica(opts replicaSimOpts, out io.Writer) error {
	if opts.Nodes < 2 {
		return fmt.Errorf("replica sim needs at least 2 nodes, got %d", opts.Nodes)
	}
	return runMatrix(opts.matrixOpts, out,
		func(st *stream.Stream, seed uint64, want []byte) ([]ReplicaSimRow, error) {
			row, err := runReplicaRound(st, seed, opts, want)
			return []ReplicaSimRow{row}, err
		},
		func(updates int, rows []ReplicaSimRow) any {
			return ReplicaSimReport{N: opts.N, Nodes: opts.Nodes, Updates: updates, BatchSize: opts.Batch, SnapshotEvery: opts.SnapshotEvery, Rows: rows}
		},
		func(row ReplicaSimRow) error {
			if !row.BitIdentical {
				return fmt.Errorf("seed %d: replicas not bit-identical after convergence", row.Seed)
			}
			for n, pos := range row.FinalPos {
				if pos != row.Updates {
					return fmt.Errorf("seed %d: node %d final position %d, want %d (exactly-once violated)", row.Seed, n, pos, row.Updates)
				}
			}
			return nil
		})
}

// runReplicaRound is one seed's partition/kill round.
func runReplicaRound(st *stream.Stream, seed uint64, opts replicaSimOpts, want []byte) (row ReplicaSimRow, err error) {
	row = ReplicaSimRow{Seed: seed, Updates: len(st.Updates)}
	nodes := make([]*replicaNodeProc, opts.Nodes)
	defer func() {
		for _, n := range nodes {
			if n == nil {
				continue
			}
			if n.child != nil {
				n.child.sigkill()
			}
			for _, p := range n.pulls {
				if p != nil {
					p.close()
				}
			}
			os.RemoveAll(n.dir)
		}
	}()

	// Proxy mesh first (addresses must exist before children spawn), then
	// the children, then the proxies learn their targets.
	for i := range nodes {
		dir, derr := os.MkdirTemp("", fmt.Sprintf("gsketch-sim-replica-%d-*", i))
		if derr != nil {
			return row, derr
		}
		n := &replicaNodeProc{dir: dir, pulls: make([]*simProxy, opts.Nodes)}
		for j := range nodes {
			if j == i {
				continue
			}
			if n.pulls[j], err = newSimProxy(); err != nil {
				return row, err
			}
		}
		nodes[i] = n
	}
	for i, n := range nodes {
		if n.child, err = spawnReplica(n.dir, n.pulls, opts); err != nil {
			return row, fmt.Errorf("spawn node %d: %w", i, err)
		}
	}
	for _, n := range nodes {
		for j, p := range n.pulls {
			if p != nil {
				p.setTarget(nodes[j].child.addr)
			}
		}
	}

	endpoints := make([]string, opts.Nodes)
	for i, n := range nodes {
		endpoints[i] = "http://" + n.child.addr
	}
	c := &service.Client{Endpoints: endpoints, JitterSeed: seed, Timeout: 3 * time.Second}

	// Every node must report ready (WAL recovery done) before traffic.
	for i := range nodes {
		nc := &service.Client{Base: endpoints[i], Attempts: 10, BackoffBase: 20 * time.Millisecond, JitterSeed: seed}
		if err := nc.Readyz(); err != nil {
			return row, fmt.Errorf("node %d never ready: %w", i, err)
		}
	}

	// Phase 1: feed the prefix through the failover client (node 0 first in
	// rotation = the effective primary).
	killAt := (len(st.Updates) / 3) + int(seed*131)%(len(st.Updates)/4)
	pos := 0
	for pos < killAt {
		end := min(pos+opts.Batch, killAt)
		acked, ierr := c.Ingest("t", pos, st.Updates[pos:end])
		if ierr != nil {
			return row, fmt.Errorf("prefix ingest: %w", ierr)
		}
		pos = acked
	}
	row.AckedAtKill = pos

	// Phase 2: partition the last node away from its sync pulls — it stops
	// converging while the cluster keeps moving.
	partitioned := opts.Nodes - 1
	for _, p := range nodes[partitioned].pulls {
		if p != nil {
			p.block()
		}
	}

	// Phase 3: SIGKILL the primary with a batch in flight.
	inflight := min(pos+opts.Batch, len(st.Updates))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		single := &service.Client{Base: endpoints[0], Attempts: 1, JitterSeed: seed}
		single.Ingest("t", pos, st.Updates[pos:inflight]) // ack may never come
	}()
	time.Sleep(time.Duration(seed%5) * time.Millisecond)
	killStart := time.Now()
	nodes[0].child.sigkill()
	nodes[0].child = nil
	wg.Wait()

	// Phase 4: the failover client re-syncs position against a survivor and
	// finishes the stream exactly-once. Failover time = kill → first ack.
	refeedFrom, perr := c.Position("t")
	if perr != nil {
		return row, fmt.Errorf("position after kill: %w", perr)
	}
	row.RefeedFrom = refeedFrom
	firstAck := false
	for p := refeedFrom; p < len(st.Updates); {
		end := min(p+opts.Batch, len(st.Updates))
		enc := service.EncodeUpdates(st.Updates[p:end])
		acked, ierr := c.Ingest("t", p, st.Updates[p:end])
		row.ReplayedB += int64(len(enc))
		if ierr != nil {
			if at, ok := service.ConflictPosition(ierr); ok {
				p = at
				continue
			}
			return row, fmt.Errorf("failover ingest: %w", ierr)
		}
		if !firstAck {
			row.FailoverMs = float64(time.Since(killStart).Microseconds()) / 1000
			firstAck = true
		}
		p = acked
	}
	if !firstAck { // stream ended exactly at the kill point
		row.FailoverMs = float64(time.Since(killStart).Microseconds()) / 1000
	}

	// Phase 5: heal the partition and restart the dead primary on its old
	// directory — both must converge via anti-entropy alone (no re-feed).
	healStart := time.Now()
	for _, p := range nodes[partitioned].pulls {
		if p != nil {
			p.heal()
		}
	}
	if nodes[0].child, err = spawnReplica(nodes[0].dir, nodes[0].pulls, opts); err != nil {
		return row, fmt.Errorf("restart node 0: %w", err)
	}
	endpoints[0] = "http://" + nodes[0].child.addr
	for _, n := range nodes[1:] {
		n.pulls[0].setTarget(nodes[0].child.addr)
	}

	// Phase 6: poll for convergence — every node serves the oracle payload
	// at exactly len(stream) updates.
	deadline := time.Now().Add(opts.ConvergeIn)
	row.FinalPos = make([]int, opts.Nodes)
	for {
		row.BitIdentical = true
		for i := range nodes {
			nc := &service.Client{Base: endpoints[i], Attempts: 1, JitterSeed: seed}
			sealed, p, _, perr := nc.PayloadAt("t")
			if perr != nil {
				row.BitIdentical = false
				break
			}
			row.FinalPos[i] = p
			got, derr := service.DecodeSealed(sealed)
			if derr != nil || p != len(st.Updates) || !bytes.Equal(got, want) {
				row.BitIdentical = false
				break
			}
		}
		if row.BitIdentical || time.Now().After(deadline) {
			break
		}
		time.Sleep(opts.SyncEvery / 2)
	}
	row.ConvergeMs = float64(time.Since(healStart).Microseconds()) / 1000

	// Roll up the survivors' sync counters for the report row.
	for i := range nodes {
		nc := &service.Client{Base: endpoints[i], Attempts: 2, JitterSeed: seed}
		met, merr := nc.Metrics()
		if merr != nil {
			continue
		}
		row.SyncRounds += met.SyncRounds
		row.SyncApplied += met.SyncApplied
		row.SyncFailed += met.SyncFailed
	}
	return row, nil
}
