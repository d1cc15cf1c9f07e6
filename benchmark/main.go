// Command benchmark is the repository's one benchmark: it drives a real
// `gsketch serve` child over loopback HTTP with seeded, generated inputs,
// checks every output against an in-process oracle bundle, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics from an
// in-process replay of the same schedule with spans around every layer's
// public calls). See README.md; run it through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// baseSeconds is the --seconds value the shapes' counts are written for.
const baseSeconds = 20

// runTimeout is the wall-clock cap on one workload run, untraced or traced.
const runTimeout = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value; printed, not serialised
}

// outcome is the one JSON object a run prints as its last line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "one of ingest-bulk, ingest-trickle, query-mixed, recover-replicate (default: all four, untraced then traced)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same schedule")
	seconds := flag.Int("seconds", baseSeconds, "run length the operation counts are scaled to (counts, not a stopwatch, end the run)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from the child server; 1: per-layer metrics from the traced in-process replay")
	root := flag.String("root", "..", "repository checkout")
	flag.Parse()
	if *seconds < 1 || flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: run.sh [--workload name] [--seed n] [--seconds s] [--trace 0|1]")
		os.Exit(2)
	}

	e, err := newEnv(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	// Every way out kills and reaps the children and removes their
	// directories: normal return, error, signal, and the wall-clock cap.
	exit := func(code int) {
		e.cleanup()
		os.Exit(code)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "benchmark: %v, stopping children\n", s)
		exit(130)
	}()
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		exit(1)
	}

	if err := refuseIfServing(); err != nil {
		fatal(err)
	}
	buildTime, err := e.build()
	if err != nil {
		fatal(err)
	}

	type run struct {
		shape shape
		trace bool
	}
	var runs []run
	if *workload == "" {
		for _, t := range []bool{false, true} {
			for _, s := range shapes {
				runs = append(runs, run{s, t})
			}
		}
	} else {
		s, ok := shapeByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		runs = []run{{s, *trace == 1}}
	}

	ok := true
	for _, r := range runs {
		watchdog := time.AfterFunc(runTimeout, func() {
			fmt.Fprintf(os.Stderr, "benchmark: %s exceeded %v\n", r.shape.name, runTimeout)
			exit(3)
		})
		sh, pool := r.shape.scaled(float64(*seconds)/baseSeconds, 3), poolSize
		if r.trace {
			// The traced run does the work three times over (child,
			// in-process server, shadow pipeline, each with its own
			// restarts and replicas), and set-up time is not its business.
			sh, pool = r.shape.scaled(float64(*seconds)/baseSeconds/3, 2), tracedPoolSize
			sh.setups = 1
		}
		out, err := runWorkload(e, sh, *seed, r.trace, pool, buildTime)
		watchdog.Stop()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", r.shape.name, err))
		}
		ok = ok && out.Correct
		line, err := json.Marshal(out)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		exit(1)
	}
	exit(0)
}

// runWorkload builds the schedule, solves it with the oracle, warms pool
// bytes of memory, and executes the schedule untraced against children or
// traced in-process.
func runWorkload(e *env, s shape, seed uint64, traced bool, pool int, buildTime time.Duration) (*outcome, error) {
	sc := buildSchedule(s, seed)
	fmt.Printf("# workload %s\n", sc)
	fmt.Printf("# stream.batch_distinct_fraction = %.4f (hot kernel batch: %.4f)\n", sc.mainDistinctFraction(), distinctFraction(sc.hot))
	// The pool is touched (kernel work) while the oracle solves the schedule
	// (user work): before set-up, on the two idle cores.
	solveStart := time.Now()
	warmed := make(chan *warmPool, 1)
	go func() { warmed <- newWarmPool(pool) }()
	err := sc.solve()
	wp := <-warmed
	defer wp.close()
	if err != nil {
		return nil, err
	}
	fmt.Printf("# wall: oracle and a warm pool of %d MiB %.1fs\n", wp.touched>>20, time.Since(solveStart).Seconds())
	var res *results
	out := &outcome{}
	defs := endToEnd
	if traced {
		defs = perLayer
		res, out.Metrics, err = runTraced(e, sc, buildTime)
	} else if res, err = runSession(e, sc); err == nil {
		out.Metrics = res.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	out.Attempted, out.Failed, out.Correct = res.attempted, res.failed, res.failed == 0
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value (%v)", d.name, m.Value)
		}
		fmt.Printf("%-44s %16.4f %-10s n=%d\n", d.name, m.Value, m.Unit, m.n)
	}
	fmt.Printf("ops_attempted %d ops_failed %d\n", out.Attempted, out.Failed)
	if err := writeSummary(e, sc, traced, out); err != nil {
		return nil, err
	}
	return out, nil
}

// writeSummary leaves the run's numbers in benchmark/out for people; the
// benchmark defines measurements and claims no gain.
func writeSummary(e *env, sc *schedule, traced bool, out *outcome) error {
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	type row struct {
		Name    string  `json:"name"`
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	rows := make([]row, 0, len(names))
	for _, n := range names {
		m := out.Metrics[n]
		rows = append(rows, row{n, m.Value, m.Unit, m.n})
	}
	// Field order is declaration order, so "claim" stays last.
	summary := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Kind     string `json:"kind"`
		Schedule string `json:"schedule_sha256"`
		Correct  bool   `json:"correct"`
		Attempt  int    `json:"ops_attempted"`
		Failed   int    `json:"ops_failed"`
		Metrics  []row  `json:"metrics"`
		Claim    any    `json:"claim"`
	}{sc.shape.name, sc.seed, kind, sc.hash(), out.Correct, out.Attempted, out.Failed, rows, nil}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.root, "benchmark", "out", fmt.Sprintf("summary-%s-%s.json", sc.shape.name, kind))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
