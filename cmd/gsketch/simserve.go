package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"graphsketch/internal/service"
	"graphsketch/internal/stream"
)

// serveSimOpts parameterizes the kill-and-recover harness.
type serveSimOpts struct {
	matrixOpts
	SnapshotEvery int
}

// ServeSimRow is one kill-and-recover round against a real `gsketch
// serve` process: where the SIGKILL landed, what the restarted server
// reported as durable, how much the client re-fed, and whether the final
// payload is bit-identical to an uninterrupted ingest.
type ServeSimRow struct {
	Seed        uint64  `json:"seed"`
	Updates     int     `json:"updates"`
	FedAtKill   int     `json:"fed_at_kill"`   // updates handed to the server (incl. in-flight)
	AckedAtKill int     `json:"acked_at_kill"` // last synchronous ack before the kill
	RefeedFrom  int     `json:"refeed_from"`   // durable position the restart reported
	Dropped     int     `json:"dropped"`       // fed but not durable: lost in flight
	ReplayedB   int64   `json:"replayed_bytes"`
	RecoveryMs  float64 `json:"recovery_ms"`

	WalDurable   int  `json:"wal_durable_updates"`
	WalReplay    int  `json:"wal_replay_updates"`
	WalLogB      int  `json:"wal_log_bytes"`
	WalSnapB     int  `json:"wal_snapshot_bytes"`
	BitIdentical bool `json:"bit_identical"`
}

// ServeSimReport is the machine-readable output of `gsketch sim
// -mode=serve`; CI gates on every row being bit-identical.
type ServeSimReport struct {
	N             int           `json:"n"`
	Updates       int           `json:"updates"`
	BatchSize     int           `json:"batch_size"`
	SnapshotEvery int           `json:"snapshot_every"`
	Rows          []ServeSimRow `json:"results"`
}

// simServe runs the kill-and-recover matrix against real serve processes:
// for each seed, SIGKILL the server mid-ingest at a seeded offset, restart
// it on the same directory, re-feed only the unacknowledged suffix from
// the reported durable position, and require the final payload to be
// bit-identical to a local uninterrupted run. Returns an error (CI gate)
// if any row fails.
func simServe(opts serveSimOpts, out io.Writer) error {
	return runMatrix(opts.matrixOpts, out,
		func(st *stream.Stream, seed uint64, want []byte) ([]ServeSimRow, error) {
			row, err := runServeRound(st, seed, opts, want)
			return []ServeSimRow{row}, err
		},
		func(updates int, rows []ServeSimRow) any {
			return ServeSimReport{N: opts.N, Updates: updates, BatchSize: opts.Batch, SnapshotEvery: opts.SnapshotEvery, Rows: rows}
		},
		func(row ServeSimRow) error {
			if !row.BitIdentical {
				return fmt.Errorf("seed %d: recovered payload not bit-identical", row.Seed)
			}
			return nil
		})
}

// runServeRound is one seed's kill-and-recover round.
func runServeRound(st *stream.Stream, seed uint64, opts serveSimOpts, want []byte) (ServeSimRow, error) {
	dir, err := os.MkdirTemp("", "gsketch-sim-serve-*")
	if err != nil {
		return ServeSimRow{}, err
	}
	defer os.RemoveAll(dir)

	child, err := spawnServe(dir, opts)
	if err != nil {
		return ServeSimRow{}, err
	}
	c := child.client()

	row := ServeSimRow{Seed: seed, Updates: len(st.Updates)}
	killAt := int(seed*137) % (len(st.Updates) / 2)
	pos := 0
	for pos < killAt {
		end := min(pos+opts.Batch, killAt)
		acked, err := c.Ingest("t", pos, st.Updates[pos:end])
		if err != nil {
			child.sigkill()
			return row, fmt.Errorf("ingest: %w", err)
		}
		pos = acked
	}
	row.AckedAtKill = pos

	// SIGKILL while one more batch is in flight: its fate (durable or
	// lost) is what the position handshake resolves after restart.
	inflight := min(pos+opts.Batch, len(st.Updates))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Ingest("t", pos, st.Updates[pos:inflight]) // ack may never come
	}()
	time.Sleep(time.Duration(seed%5) * time.Millisecond)
	child.sigkill()
	wg.Wait()
	row.FedAtKill = inflight

	start := time.Now()
	child2, err := spawnServe(dir, opts)
	if err != nil {
		return row, fmt.Errorf("restart: %w", err)
	}
	defer child2.sigkill()
	c2 := child2.client()
	refeedFrom, err := c2.Position("t")
	if err != nil {
		return row, fmt.Errorf("position after restart: %w", err)
	}
	row.RecoveryMs = float64(time.Since(start).Microseconds()) / 1000
	row.RefeedFrom = refeedFrom
	row.Dropped = row.FedAtKill - refeedFrom
	if row.Dropped < 0 {
		row.Dropped = 0
	}

	for p := refeedFrom; p < len(st.Updates); {
		end := min(p+opts.Batch, len(st.Updates))
		row.ReplayedB += int64(len(service.EncodeUpdates(st.Updates[p:end])))
		acked, err := c2.Ingest("t", p, st.Updates[p:end])
		if err != nil {
			return row, fmt.Errorf("re-feed: %w", err)
		}
		p = acked
	}

	fp, err := c2.Footprint("t")
	if err != nil {
		return row, fmt.Errorf("footprint: %w", err)
	}
	row.WalDurable, row.WalReplay = fp.WALDurable, fp.WALReplay
	row.WalLogB, row.WalSnapB = fp.WALLogBytes, fp.WALSnapshotBytes

	sealed, err := c2.Payload("t")
	if err != nil {
		return row, fmt.Errorf("payload: %w", err)
	}
	got, err := service.DecodeSealed(sealed)
	if err != nil {
		return row, fmt.Errorf("open payload: %w", err)
	}
	row.BitIdentical = bytes.Equal(got, want)
	return row, nil
}
