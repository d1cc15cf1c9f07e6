// Command gsketch runs the experiment suite that regenerates every figure-
// and theorem-level claim of the paper (see DESIGN.md for the index).
//
// Usage:
//
//	gsketch list              enumerate experiments
//	gsketch all               run everything (several minutes)
//	gsketch <id>...           run specific experiments, e.g. gsketch e4 e9
//	gsketch run <sketch>      sketch a stream from stdin (text format:
//	                          "n <vertices>" header, then "u v [delta]")
//	gsketch bench [flags]     measure forest-sketch ingest throughput
//	                          (arena vs pointer baseline, parallel worker
//	                          scaling) and emit machine-readable JSON
//	gsketch sim [flags]       run the fault-injection failure matrix
//	                          (message loss, corruption, site crashes) and
//	                          emit per-scenario recovery/retransmission rows;
//	                          -mode=serve instead SIGKILLs real serve
//	                          processes mid-ingest and checks exact recovery;
//	                          -mode=replica runs a replicated cluster through
//	                          a partition/kill matrix and checks bit-identical
//	                          convergence with exactly-once ingest;
//	                          -mode=scrub runs the bit-rot matrix (disk, live,
//	                          both, across a restart, in flight) and checks
//	                          detection, the repair tier and bit-identical
//	                          repair
//	gsketch serve [flags]     run the multi-tenant sketch service (WAL-
//	                          durable ingest, epoch-snapshot queries,
//	                          graceful drain on SIGTERM; -peers enables
//	                          anti-entropy replication, /readyz gates traffic
//	                          on WAL recovery)
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"graphsketch/internal/experiments"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "run":
		runCommand(args[1:])
	case "bench":
		if err := benchCommand(args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "gsketch:", err)
			os.Exit(1)
		}
	case "sim":
		if err := simCommand(args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "gsketch:", err)
			os.Exit(1)
		}
	case "serve":
		if err := serveCommand(args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "gsketch:", err)
			os.Exit(1)
		}
	case "list":
		ids := make([]string, 0, len(experiments.Registry))
		for id := range experiments.Registry {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
	case "all":
		start := time.Now()
		for _, tb := range experiments.All() {
			fmt.Println(tb.Format())
		}
		fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
	default:
		for _, id := range args {
			tb, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try `gsketch list`)\n", id)
				os.Exit(2)
			}
			fmt.Println(tb.Format())
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gsketch list | all | <experiment-id>... | run <sketch> | bench [flags] | sim [flags] | serve [flags]")
}
