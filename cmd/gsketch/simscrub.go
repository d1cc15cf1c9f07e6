package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	rt "graphsketch/internal/runtime"
	"graphsketch/internal/service"
	"graphsketch/internal/stream"
)

// scrubScenarios is the bit-rot failure matrix: where the corruption
// lands and which repair tier must resolve it.
//
//	disk-rot     snapshot byte flipped on disk, live clean → local rewrite
//	live-rot     in-memory bank rotted, disk clean → WAL replay rebuild
//	rot-both     live AND disk rotted → quarantine, peer delta repair
//	restart-rot  snapshot rotted while down → sideline at open, peer repair
//	sync-corrupt payload tampered in flight → digest reject, honest retry
var scrubScenarios = []string{"disk-rot", "live-rot", "rot-both", "restart-rot", "sync-corrupt"}

// ScrubSimRow is one (seed, scenario) bit-rot round.
type ScrubSimRow struct {
	Seed     uint64 `json:"seed"`
	Scenario string `json:"scenario"`
	Updates  int    `json:"updates"` // this seed's stream length (streams differ per seed)
	// Detected: the integrity machinery saw the corruption (scrub verdict,
	// open-time sideline, or sync-install reject — per scenario).
	Detected bool `json:"detected"`
	// Quarantined: the tenant was fenced pending peer repair.
	Quarantined bool `json:"quarantined,omitempty"`
	// Fenced: queries were refused (503) while quarantined — corrupt state
	// was never served.
	Fenced bool `json:"fenced_503,omitempty"`
	// Repair names the tier that restored integrity: "snapshot", "recover"
	// (local), "peer-delta", "peer-full", or "reject" (nothing installed).
	Repair string `json:"repair"`
	// Delta economics for peer repairs: bytes actually pulled vs the full
	// payload the pre-digest-tree protocol would have moved.
	DeltaBytes int64   `json:"delta_bytes,omitempty"`
	FullBytes  int64   `json:"full_bytes,omitempty"`
	DeltaRatio float64 `json:"delta_ratio,omitempty"`
	// BitIdentical: the repaired node's payload equals the uninterrupted
	// oracle byte for byte at the full stream position.
	BitIdentical bool `json:"bit_identical"`
	FinalPos     int  `json:"final_pos"`
}

// ScrubSimReport is the machine-readable output of `gsketch sim
// -mode=scrub`; CI gates on detection, bit-identical repair, and a small
// delta-bytes fraction on every row.
type ScrubSimReport struct {
	N       int           `json:"n"`
	Nodes   int           `json:"nodes"`
	Updates int           `json:"updates"`
	Rows    []ScrubSimRow `json:"results"`
}

// scrubNode is one in-process serve node: a real Server behind a real
// HTTP listener, so sync pulls travel the actual wire while the sim keeps
// direct handles for rot injection and deterministic scrub/sync rounds.
type scrubNode struct {
	dir string
	srv *service.Server
	hs  *http.Server
	url string
	c   *service.Client
}

func startScrubNode(dir string, cfg service.BundleConfig, seed uint64) (*scrubNode, error) {
	srv, err := service.NewServer(service.Config{
		Dir:    dir,
		Bundle: cfg,
		// Explicit flushes only: the sim controls exactly when disk bytes
		// change, so a flipped byte cannot be overwritten behind its back.
		Fsync:         rt.FsyncAlways,
		SnapshotEvery: 1 << 30,
		EpochEvery:    64,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()
	return &scrubNode{
		dir: dir, srv: srv, hs: hs, url: url,
		c: &service.Client{Base: url, JitterSeed: seed, Timeout: 10 * time.Second},
	}, nil
}

func (n *scrubNode) stop() {
	if n == nil {
		return
	}
	n.srv.Kill()
	n.hs.Close()
}

// payloadEquals fetches the node's full payload and compares it to the
// oracle bytes at the expected position.
func (n *scrubNode) payloadEquals(want []byte, wantPos int) bool {
	sealed, pos, _, err := n.c.PayloadAt("t")
	if err != nil || pos != wantPos {
		return false
	}
	got, err := service.DecodeSealed(sealed)
	return err == nil && bytes.Equal(got, want)
}

// flipSnapshotByte flips one byte of the tenant's on-disk snapshot, past
// the header so the damage lands in checksummed body bytes — the modeled
// bit-rot a CRC read-back must catch.
func flipSnapshotByte(nodeDir string, seed uint64) error {
	path := rt.SnapshotPath(filepath.Join(nodeDir, "t"))
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < 64 {
		return fmt.Errorf("snapshot %s too small to rot (%d bytes)", path, len(data))
	}
	off := 48 + int(seed%uint64(len(data)-56))
	data[off] ^= 0x40
	return os.WriteFile(path, data, 0o644)
}

// scrubCluster is one scenario's 3-node fixture. Node 0 is the victim;
// nodes 1 and 2 are the healthy peers repair pulls from.
type scrubCluster struct {
	nodes [3]*scrubNode
	sync  [3]*service.Syncer
	scrub [3]*service.Scrubber
	seed  uint64
	cfg   service.BundleConfig
}

func (cl *scrubCluster) close() {
	for _, n := range cl.nodes {
		n.stop()
	}
	for _, n := range cl.nodes {
		if n != nil {
			os.RemoveAll(n.dir)
		}
	}
}

// restartVictim kills node 0 in place and brings a fresh server up on the
// same directory — the crash-restart half of the restart-rot scenario.
func (cl *scrubCluster) restartVictim() error {
	cl.nodes[0].stop()
	n, err := startScrubNode(cl.nodes[0].dir, cl.cfg, cl.seed)
	if err != nil {
		return err
	}
	cl.nodes[0] = n
	cl.sync[0] = service.NewSyncer(n.srv, service.SyncConfig{
		Peers: []string{cl.nodes[1].url, cl.nodes[2].url}, JitterSeed: cl.seed, Timeout: 10 * time.Second,
	})
	cl.scrub[0] = service.NewScrubber(n.srv, service.ScrubConfig{Every: time.Hour})
	return nil
}

// startScrubCluster builds the fixture: three nodes, the whole stream fed
// and flushed on node 0.
func startScrubCluster(st *stream.Stream, seed uint64, cfg service.BundleConfig) (*scrubCluster, error) {
	cl := &scrubCluster{seed: seed, cfg: cfg}
	for i := range cl.nodes {
		dir, err := os.MkdirTemp("", fmt.Sprintf("gsketch-sim-scrub-%d-*", i))
		if err != nil {
			cl.close()
			return nil, err
		}
		if cl.nodes[i], err = startScrubNode(dir, cfg, seed); err != nil {
			os.RemoveAll(dir)
			cl.close()
			return nil, err
		}
	}
	for i, n := range cl.nodes {
		var peers []string
		for j, p := range cl.nodes {
			if j != i {
				peers = append(peers, p.url)
			}
		}
		cl.sync[i] = service.NewSyncer(n.srv, service.SyncConfig{
			Peers: peers, JitterSeed: seed, Timeout: 10 * time.Second,
		})
		cl.scrub[i] = service.NewScrubber(n.srv, service.ScrubConfig{Every: time.Hour})
	}
	if _, _, err := cl.nodes[0].c.IngestStream("t", st.Updates, 128); err != nil {
		cl.close()
		return nil, fmt.Errorf("feed: %w", err)
	}
	if _, err := cl.nodes[0].c.Flush("t"); err != nil {
		cl.close()
		return nil, fmt.Errorf("flush: %w", err)
	}
	return cl, nil
}

// convergeFollowers drives sync rounds until nodes 1 and 2 hold the
// oracle bytes.
func (cl *scrubCluster) convergeFollowers(ctx context.Context, want []byte, wantPos int) error {
	for i := 1; i <= 2; i++ {
		ok := false
		for r := 0; r < 10 && !ok; r++ {
			cl.sync[i].RunOnce(ctx)
			ok = cl.nodes[i].payloadEquals(want, wantPos)
		}
		if !ok {
			return fmt.Errorf("node %d never converged to the oracle", i)
		}
	}
	return nil
}

// victimReport runs one scrub round on node 0 and returns tenant t's row.
func (cl *scrubCluster) victimReport(ctx context.Context) (service.ScrubReport, error) {
	round := cl.scrub[0].RunOnce(ctx)
	for _, rep := range round.Reports {
		if rep.Tenant == "t" {
			return rep, nil
		}
	}
	return service.ScrubReport{}, fmt.Errorf("scrub round reported no tenant t (%d tenants)", round.Tenants)
}

// runScrubScenario executes one (seed, scenario) round against a fresh
// cluster and reports the row.
func runScrubScenario(scenario string, st *stream.Stream, seed uint64, cfg service.BundleConfig, want []byte) (ScrubSimRow, error) {
	ctx := context.Background()
	row := ScrubSimRow{Seed: seed, Scenario: scenario, Updates: len(st.Updates)}
	cl, err := startScrubCluster(st, seed, cfg)
	if err != nil {
		return row, err
	}
	defer cl.close()
	full := len(st.Updates)
	victim := cl.nodes[0]

	// Rot bank: a middle sketch bank, deterministic per seed so delta
	// pulls stay a small fraction of the payload.
	pi, err := victim.c.PositionEx("t")
	if err != nil || !pi.HasManifest {
		return row, fmt.Errorf("victim manifest probe: has=%v err=%v", pi.HasManifest, err)
	}
	rotBank := 1 + int(seed)%(len(pi.Manifest.Banks)/2)

	switch scenario {
	case "disk-rot":
		if err := flipSnapshotByte(victim.dir, seed); err != nil {
			return row, err
		}
		rep, err := cl.victimReport(ctx)
		if err != nil {
			return row, err
		}
		row.Detected = !rep.DiskOK
		row.Repair = rep.Repaired // want "snapshot"
		row.Quarantined = rep.Quarantined

	case "live-rot":
		if err := victim.srv.InjectBankRot(ctx, "t", rotBank, seed); err != nil {
			return row, err
		}
		rep, err := cl.victimReport(ctx)
		if err != nil {
			return row, err
		}
		row.Detected = !rep.LiveOK
		row.Repair = rep.Repaired // want "recover"
		row.Quarantined = rep.Quarantined

	case "rot-both":
		if err := cl.convergeFollowers(ctx, want, full); err != nil {
			return row, err
		}
		if err := victim.srv.InjectBankRot(ctx, "t", rotBank, seed); err != nil {
			return row, err
		}
		if err := flipSnapshotByte(victim.dir, seed); err != nil {
			return row, err
		}
		rep, err := cl.victimReport(ctx)
		if err != nil {
			return row, err
		}
		row.Detected = !rep.LiveOK && !rep.DiskOK
		row.Quarantined = rep.Quarantined
		if _, qerr := victim.c.MinCut("t"); qerr != nil {
			row.Fenced = true // fenced: the rotted state was never served
		}
		round := cl.sync[0].RunOnce(ctx)
		if round.Repaired > 0 {
			row.Repair = "peer-full"
			if round.Deltas > 0 {
				row.Repair = "peer-delta"
			}
		}
		row.DeltaBytes = round.Bytes
		if sealed, _, _, perr := cl.nodes[1].c.PayloadAt("t"); perr == nil {
			row.FullBytes = int64(len(sealed))
		}
		if row.FullBytes > 0 {
			row.DeltaRatio = float64(row.DeltaBytes) / float64(row.FullBytes)
		}

	case "restart-rot":
		if err := cl.convergeFollowers(ctx, want, full); err != nil {
			return row, err
		}
		if err := flipSnapshotByte(victim.dir, seed); err != nil {
			return row, err
		}
		if err := cl.restartVictim(); err != nil {
			return row, err
		}
		victim = cl.nodes[0]
		if err := victim.srv.Preload(); err != nil {
			return row, fmt.Errorf("preload after rot: %w", err)
		}
		q, _ := victim.srv.TenantQuarantined("t")
		row.Detected = q // corrupt-at-open sidelined the directory and fenced
		row.Quarantined = q
		if _, qerr := victim.c.MinCut("t"); qerr != nil {
			row.Fenced = true
		}
		round := cl.sync[0].RunOnce(ctx)
		if round.Repaired > 0 {
			row.Repair = "peer-full"
			if round.Deltas > 0 {
				row.Repair = "peer-delta"
			}
		}
		row.DeltaBytes = round.Bytes
		if sealed, _, _, perr := cl.nodes[1].c.PayloadAt("t"); perr == nil {
			row.FullBytes = int64(len(sealed))
		}
		if row.FullBytes > 0 {
			row.DeltaRatio = float64(row.DeltaBytes) / float64(row.FullBytes)
		}

	case "sync-corrupt":
		// In-flight corruption: pull the victim's sealed payload, tamper a
		// bank byte, re-seal (the envelope CRC passes), and push it to node 1
		// with the victim's true root — the digest tree must refuse it twice
		// over (bank-vs-manifest, manifest-vs-root).
		sealed, pos, epoch, root, perr := victim.c.PayloadBanksAt("t", nil)
		if perr != nil {
			return row, perr
		}
		payload, derr := service.DecodeSealed(sealed)
		if derr != nil {
			return row, derr
		}
		tampered := bytes.Clone(payload)
		tampered[len(tampered)/3] ^= 0x40
		target := fmt.Sprintf("%s/v1/tenants/t/sync?pos=%d&epoch=%d&root=%016x", cl.nodes[1].url, pos, epoch, root)
		resp, herr := http.Post(target, "application/octet-stream", bytes.NewReader(service.SealPayload(tampered)))
		if herr != nil {
			return row, herr
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rejected := resp.StatusCode != http.StatusOK
		// Root-contradiction form: clean bytes, lying advertisement.
		target = fmt.Sprintf("%s/v1/tenants/t/sync?pos=%d&epoch=%d&root=%016x", cl.nodes[1].url, pos, epoch, root^0xdeadbeef)
		resp, herr = http.Post(target, "application/octet-stream", bytes.NewReader(sealed))
		if herr != nil {
			return row, herr
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rejected = rejected && resp.StatusCode != http.StatusOK
		met, merr := cl.nodes[1].c.Metrics()
		if merr != nil {
			return row, merr
		}
		p1, perr2 := cl.nodes[1].c.Position("t")
		row.Detected = rejected && met.SyncDigestReject >= 1 && perr2 == nil && p1 == 0
		row.Repair = "reject"
		// The honest pull must still converge node 1 afterward.
		for r := 0; r < 10 && !cl.nodes[1].payloadEquals(want, full); r++ {
			cl.sync[1].RunOnce(ctx)
		}
		row.BitIdentical = cl.nodes[1].payloadEquals(want, full)
		_, row.FinalPos, _, _ = cl.nodes[1].c.PayloadAt("t")
		return row, nil

	default:
		return row, fmt.Errorf("unknown scrub scenario %q", scenario)
	}

	// Postconditions for every victim-side scenario: the fence is lifted,
	// a follow-up scrub round is clean, and the victim's payload is
	// byte-identical to the oracle at the full stream position.
	if q, _ := victim.srv.TenantQuarantined("t"); q {
		return row, fmt.Errorf("tenant still quarantined after repair")
	}
	rep, err := cl.victimReport(ctx)
	if err != nil {
		return row, err
	}
	if !rep.Clean() {
		return row, fmt.Errorf("post-repair scrub not clean: %+v", rep)
	}
	row.BitIdentical = victim.payloadEquals(want, full)
	_, row.FinalPos, _, _ = victim.c.PayloadAt("t")
	return row, nil
}

// simScrub runs the bit-rot chaos matrix: per seed, every scenario gets a
// fresh 3-node cluster, seeded corruption, and must end with detection
// (never serving rotted state) and byte-identical repair — with delta
// repairs moving only a small fraction of the full payload.
func simScrub(opts matrixOpts, out io.Writer) error {
	cfg := opts.bundleConfig()
	return runMatrix(opts, out,
		func(st *stream.Stream, seed uint64, want []byte) ([]ScrubSimRow, error) {
			var rows []ScrubSimRow
			for _, scenario := range scrubScenarios {
				row, err := runScrubScenario(scenario, st, seed, cfg, want)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", scenario, err)
				}
				rows = append(rows, row)
			}
			return rows, nil
		},
		func(updates int, rows []ScrubSimRow) any {
			return ScrubSimReport{N: opts.N, Nodes: 3, Updates: updates, Rows: rows}
		},
		func(row ScrubSimRow) error {
			if !row.Detected {
				return fmt.Errorf("seed %d %s: corruption went undetected", row.Seed, row.Scenario)
			}
			if !row.BitIdentical {
				return fmt.Errorf("seed %d %s: not bit-identical to the oracle after repair", row.Seed, row.Scenario)
			}
			if row.Scenario == "rot-both" {
				if row.Repair != "peer-delta" {
					return fmt.Errorf("seed %d %s: repair was %q, want peer-delta", row.Seed, row.Scenario, row.Repair)
				}
				if row.DeltaRatio > 0.25 {
					return fmt.Errorf("seed %d %s: delta pulled %.0f%% of the full payload (gate: 25%%)",
						row.Seed, row.Scenario, row.DeltaRatio*100)
				}
			}
			return nil
		})
}
