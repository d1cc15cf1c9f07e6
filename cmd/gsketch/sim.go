package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	graphsketch "graphsketch"
	rt "graphsketch/internal/runtime"
	"graphsketch/internal/stream"
)

// simScenario is one column of the failure matrix: a named fault/crash
// configuration every run sweeps with the same stream and seed base.
type simScenario struct {
	Name    string
	Faults  rt.FaultPlan
	Crashes rt.CrashPlan
}

// simScenarios returns the failure matrix. Probabilities are deliberately
// harsh (a fifth of messages dropped, a sixth corrupted) so the retry and
// recovery machinery measurably works on every run; the seed offsets keep
// the scenarios' fault schedules independent.
func simScenarios(seed uint64) []simScenario {
	return []simScenario{
		{Name: "clean"},
		{
			Name:   "lossy",
			Faults: rt.FaultPlan{Seed: seed, DropProb: 0.20, DupProb: 0.25, DelayBase: 500, DelayJitter: 4000},
		},
		{
			Name:   "corrupting",
			Faults: rt.FaultPlan{Seed: seed ^ 0xA5A5, CorruptProb: 0.20, DelayBase: 500, DelayJitter: 2000},
		},
		{
			Name:    "crashy",
			Crashes: rt.CrashPlan{Seed: seed ^ 0xC0FFEE, CrashProb: 0.20, TornTailProb: 0.5, MaxTornBytes: 80},
		},
		{
			Name:    "chaos",
			Faults:  rt.FaultPlan{Seed: seed, DropProb: 0.20, DupProb: 0.25, CorruptProb: 0.15, DelayBase: 500, DelayJitter: 4000},
			Crashes: rt.CrashPlan{Seed: seed ^ 0xC0FFEE, CrashProb: 0.15, TornTailProb: 0.5, MaxTornBytes: 80},
		},
	}
}

// SimRow is one simulated deployment: the scenario name and seed plus the
// cluster's report (recovery time, retransmitted bytes, message counts).
type SimRow struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	rt.Report
}

// SimReport is the machine-readable output of `gsketch sim`.
type SimReport struct {
	N             int      `json:"n"`
	Sites         int      `json:"sites"`
	Updates       int      `json:"updates"`
	BatchSize     int      `json:"batch_size"`
	SnapshotEvery int      `json:"snapshot_every"`
	Rows          []SimRow `json:"results"`
}

// simCommand runs the fault-injection failure matrix: one simulated
// distributed deployment per scenario, each checked for bit-identity
// against an uninterrupted single-site run over the same stream.
//
// With -mode=serve it instead runs the service-level chaos harness: real
// `gsketch serve` child processes SIGKILLed mid-ingest at seeded offsets,
// restarted on the same data directory, and re-fed only the
// unacknowledged suffix — every seed's recovered payload must be
// bit-identical to an uninterrupted run.
func simCommand(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	mode := fs.String("mode", "cluster", "cluster (in-process failure matrix), serve (SIGKILL real serve processes), replica (partition/kill a replicated cluster), or scrub (bit-rot detection and repair matrix)")
	n := fs.Int("n", 96, "vertex count")
	p := fs.Float64("p", 0.2, "GNP edge probability")
	churn := fs.Int("churn", 300, "insert+delete churn pairs appended to the stream")
	sites := fs.Int("sites", 4, "site workers (cluster mode)")
	batch := fs.Int("batch", 100, "updates per ingest batch (and WAL record)")
	snapshotEvery := fs.Int("snapshot-every", 300, "updates between site snapshots (0 = never)")
	seed := fs.Uint64("seed", 1, "base seed for stream, faults, and crashes")
	seeds := fs.Int("seeds", 8, "kill-and-recover rounds (serve/replica modes)")
	nodes := fs.Int("nodes", 3, "cluster width (replica mode)")
	syncEvery := fs.Duration("sync-every", 50*time.Millisecond, "anti-entropy interval for replica children (replica mode)")
	convergeIn := fs.Duration("converge-in", 30*time.Second, "convergence deadline after heal+restart (replica mode)")
	scenarios := fs.String("scenarios", "clean,lossy,corrupting,crashy,chaos",
		"comma-separated failure-matrix columns to run (cluster mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	matrix := matrixOpts{N: *n, P: *p, Churn: *churn, Batch: *batch, Seeds: *seeds, BaseSeed: *seed}
	switch *mode {
	case "serve":
		return simServe(serveSimOpts{matrixOpts: matrix, SnapshotEvery: *snapshotEvery}, out)
	case "replica":
		return simReplica(replicaSimOpts{
			serveSimOpts: serveSimOpts{matrixOpts: matrix, SnapshotEvery: *snapshotEvery},
			Nodes:        *nodes, SyncEvery: *syncEvery, ConvergeIn: *convergeIn,
		}, out)
	case "scrub":
		return simScrub(matrix, out)
	case "cluster":
	default:
		return fmt.Errorf("unknown -mode %q (known: cluster, serve, replica, scrub)", *mode)
	}

	st := stream.GNP(*n, *p, *seed).WithChurn(*churn, *seed^0x5eed)

	// The correctness oracle: one uninterrupted site ingests the whole
	// stream. Linearity says the fault-ridden distributed run must merge to
	// these exact bytes whenever it reaches full coverage.
	ref := graphsketch.NewConnectivitySketch(*n, *seed)
	ref.UpdateBatch(st.Updates)
	reference, err := ref.MarshalBinaryCompact()
	if err != nil {
		return err
	}

	want := make(map[string]bool)
	for _, name := range strings.Split(*scenarios, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}

	rep := SimReport{
		N:             *n,
		Sites:         *sites,
		Updates:       len(st.Updates),
		BatchSize:     *batch,
		SnapshotEvery: *snapshotEvery,
	}
	factory := func() rt.Sketch { return graphsketch.NewConnectivitySketch(*n, *seed) }
	for _, sc := range simScenarios(*seed) {
		if !want[sc.Name] {
			continue
		}
		delete(want, sc.Name)
		cluster := rt.NewCluster(rt.ClusterConfig{
			Sites:             *sites,
			BatchSize:         *batch,
			SnapshotEvery:     *snapshotEvery,
			Faults:            sc.Faults,
			Crashes:           sc.Crashes,
			RecoveryPerUpdate: 1,
		}, *n, factory)
		if err := cluster.Ingest(st); err != nil {
			return fmt.Errorf("scenario %s: ingest: %v", sc.Name, err)
		}
		cluster.Collect()
		row, err := cluster.Report(len(st.Updates), reference)
		if err != nil {
			return fmt.Errorf("scenario %s: report: %v", sc.Name, err)
		}
		rep.Rows = append(rep.Rows, SimRow{Scenario: sc.Name, Seed: *seed, Report: row})
	}
	for name := range want {
		return fmt.Errorf("unknown scenario %q (known: clean, lossy, corrupting, crashy, chaos)", name)
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
