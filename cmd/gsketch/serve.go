package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	rt "graphsketch/internal/runtime"
	"graphsketch/internal/service"
)

// serveCommand runs the multi-tenant sketch service until SIGTERM/SIGINT,
// then drains gracefully: intake stops, every tenant WAL flushes and
// snapshots, and the process exits 0. A SIGKILL instead is exactly what
// `gsketch sim -mode=serve` inflicts — recovery on the next start is the
// durability contract.
//
// On startup it prints one JSON line {"addr": "...", "pid": ...} to
// stdout, so a parent process using -addr=127.0.0.1:0 learns the bound
// port.
func serveCommand(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	dir := fs.String("dir", "gsketch-data", "data root; each tenant's WAL lives in a subdirectory")
	fsyncPolicy := fs.String("fsync", "interval", "WAL fsync policy: always, interval, never")
	fsyncEvery := fs.Int("fsync-every", 64, "appends between syncs under -fsync=interval")
	queue := fs.Int("queue", 64, "per-tenant ingest queue capacity in batches (backpressure bound)")
	snapshotEvery := fs.Int("snapshot-every", 4096, "updates between WAL snapshots (bounds recovery replay)")
	epochEvery := fs.Int("epoch-every", 256, "updates between epoch snapshot publications (bounds query staleness)")
	tenantBudget := fs.Int64("tenant-budget", 0, "per-tenant resident-byte budget, 0 = unlimited")
	globalBudget := fs.Int64("global-budget", 0, "global resident-byte budget (evicts coldest tenant), 0 = unlimited")
	queryTimeout := fs.Duration("query-timeout", 10*time.Second, "per-request deadline")
	n := fs.Int("n", 64, "vertex universe per tenant bundle")
	k := fs.Int("k", 6, "min-cut connectivity threshold K, read off the sparsifier's first K forests per level (1 to its forest count, at least 6)")
	eps := fs.Float64("eps", 1.0, "sparsifier accuracy")
	spannerK := fs.Int("spanner-k", 2, "Baswana-Sen stretch parameter (2k-1 stretch)")
	seed := fs.Uint64("seed", 1, "hash seed shared by all tenants")
	peers := fs.String("peers", "", "comma-separated peer base URLs to anti-entropy sync from (replication)")
	syncEvery := fs.Duration("sync-every", 500*time.Millisecond, "anti-entropy round interval when -peers is set")
	scrubEvery := fs.Duration("scrub-every", 5*time.Second, "background integrity scrub interval (0 disables scrubbing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := rt.ParseFsyncPolicy(*fsyncPolicy)
	if err != nil {
		return err
	}

	srv, err := service.NewServer(service.Config{
		Dir:           *dir,
		Bundle:        service.BundleConfig{N: *n, K: *k, Eps: *eps, SpannerK: *spannerK, Seed: *seed},
		Queue:         *queue,
		Fsync:         policy,
		FsyncEvery:    *fsyncEvery,
		SnapshotEvery: *snapshotEvery,
		EpochEvery:    *epochEvery,
		TenantBudget:  *tenantBudget,
		GlobalBudget:  *globalBudget,
		QueryTimeout:  *queryTimeout,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ready, _ := json.Marshal(map[string]any{"addr": ln.Addr().String(), "pid": os.Getpid()})
	fmt.Fprintln(out, string(ready))

	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	// Recover on-disk tenants in the background: the listener is already
	// answering /healthz (alive) while /readyz returns 503 until every
	// tenant WAL is replayed and its first epoch published.
	go func() {
		if err := srv.Preload(); err != nil {
			fmt.Fprintf(os.Stderr, "gsketch serve: preload: %v\n", err)
		}
	}()

	// Replication: an anti-entropy syncer pulls epoch-stamped payloads from
	// every peer that is ahead, converging this node to bit-identical state.
	var syncer *service.Syncer
	if *peers != "" {
		var urls []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				urls = append(urls, p)
			}
		}
		if len(urls) > 0 {
			syncer = service.NewSyncer(srv, service.SyncConfig{
				Peers: urls, Every: *syncEvery, JitterSeed: *seed,
			})
			go syncer.Run()
		}
	}

	// Integrity: a background scrubber re-verifies every tenant's digest
	// tree (live, published epoch, and the WAL bytes on disk) each interval,
	// repairing single-surface rot locally and quarantining anything worse
	// for the syncer to repair from a peer.
	var scrubber *service.Scrubber
	if *scrubEvery > 0 {
		scrubber = service.NewScrubber(srv, service.ScrubConfig{Every: *scrubEvery})
		go scrubber.Run()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "gsketch serve: %v, draining\n", s)
	}
	if syncer != nil {
		syncer.Stop()
	}
	if scrubber != nil {
		scrubber.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return hs.Shutdown(ctx)
}
