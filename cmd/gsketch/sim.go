package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"graphsketch/internal/faultnet"
	"graphsketch/internal/stream"
)

// SimRow is one simulated deployment: the scenario name and seed plus the
// cluster's report (recovery time, retransmitted bytes, message counts).
type SimRow struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	faultnet.Report
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

// simCommand runs the fault-injection failure matrix: per scenario, one
// deployment of in-process service sites fed and pulled over HTTP through
// a faulty transport, checked for bit-identity against one bundle fed the
// whole stream.
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

	matrix.Seeds = 1 // cluster mode is one seed per call
	want := make(map[string]bool)
	for _, name := range strings.Split(*scenarios, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	var run []faultnet.Scenario
	for _, sc := range faultnet.Scenarios(*seed) {
		if want[sc.Name] {
			run = append(run, sc)
			delete(want, sc.Name)
		}
	}
	for name := range want {
		return fmt.Errorf("unknown scenario %q (known: clean, lossy, corrupting, crashy, chaos)", name)
	}

	return runMatrix(matrix, out,
		func(st *stream.Stream, seed uint64, oracle []byte) ([]SimRow, error) {
			var rows []SimRow
			for _, sc := range run {
				rep, _, err := faultnet.Run(faultnet.Config{
					Sites:         *sites,
					Batch:         *batch,
					SnapshotEvery: *snapshotEvery,
					Bundle:        matrix.bundleConfig(),
					Faults:        sc.Faults,
					Crashes:       sc.Crashes,
				}, st, oracle)
				if err != nil {
					return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
				}
				rows = append(rows, SimRow{Scenario: sc.Name, Seed: seed, Report: rep})
			}
			return rows, nil
		},
		func(updates int, rows []SimRow) any {
			return SimReport{N: *n, Sites: *sites, Updates: updates, BatchSize: *batch, SnapshotEvery: *snapshotEvery, Rows: rows}
		},
		func(row SimRow) error {
			if row.Coverage != 1 || !row.BitIdentical {
				return fmt.Errorf("scenario %s: coverage %v, bit-identical %v", row.Scenario, row.Coverage, row.BitIdentical)
			}
			return nil
		})
}
