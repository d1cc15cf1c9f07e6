package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// pinnedSchedules are the SHA-256 of each workload's seed-1 schedule at the
// default --seconds. A change here changes what every later comparison
// measures: input drift must not pass as a speed-up.
var pinnedSchedules = map[string]string{
	"ingest-bulk":       "f6209069e00438c6017eb7aa6fcaeb73e644e85729c820b62fc891a1141717a3",
	"ingest-trickle":    "ae7cc85e96ebc2fb12be1e5055d8ce202d30980d9ef884e308ed3a53a7096c68",
	"query-mixed":       "80f52ff0842a91091642bb783fc43c3aa6adf1464eb1623b9a700ac87c6aa503",
	"recover-replicate": "5f668527a816f6361439981d21cae78da2cc5ff01048701a36b2a8b6cb769831",
}

func TestSchedulesArePinned(t *testing.T) {
	for _, s := range shapes {
		sc := buildSchedule(s, 1)
		if got := sc.hash(); got != pinnedSchedules[s.name] {
			t.Errorf("%s: seed-1 schedule hash %s, pinned %s", s.name, got, pinnedSchedules[s.name])
		}
		if f := sc.mainDistinctFraction(); f != 1 {
			t.Errorf("%s: batch distinct fraction %v, want 1", s.name, f)
		}
		if f := distinctFraction(sc.hot); f != 1.0/16 {
			t.Errorf("%s: hot batch distinct fraction %v, want 1/16", s.name, f)
		}
		if again := buildSchedule(s, 1).hash(); again != sc.hash() {
			t.Errorf("%s: the same seed gave two schedules", s.name)
		}
		if other := buildSchedule(s, 2).hash(); other == sc.hash() {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", s.name)
		}
	}
}

func TestTailLatency(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 1
	}
	xs[3], xs[25], xs[47] = 9, 7, 8 // one spike in each of [0,20), [20,40), [40,50)
	if got := tailLatency(xs, 20); got != 8 {
		t.Errorf("tailLatency = %v, want the median window maximum 8", got)
	}
	xs[4] = 1000 // an outlier in one window leaves the median maximum alone
	if got := tailLatency(xs, 20); got != 8 {
		t.Errorf("tailLatency with an outlier = %v, want 8", got)
	}
	if got := tailLatency(xs[:24], 20); got != 1000 {
		t.Errorf("a 4-sample remainder joins the window before it: got %v, want 1000", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step, and
// inside the limits the benchmark contract sets.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not made of [A-Za-z0-9_.-]", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if b.RunSeconds != baseSeconds {
		t.Errorf("run_seconds = %d, the shapes are sized for %d", b.RunSeconds, baseSeconds)
	}
	if len(b.Workloads) != len(shapes) || len(b.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d shapes (at most 8)", len(b.Workloads), len(shapes))
	}
	workloads := map[string]bool{}
	for i, w := range b.Workloads {
		name("workload", w.Name)
		workloads[w.Name] = true
		if w.Name != shapes[i].name {
			t.Errorf("workload %d is %q, shape is %q", i, w.Name, shapes[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q needs a why of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark (at most 16)", len(b.EndToEnd), len(endToEnd))
	}
	e2e := map[string]bool{}
	for i, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		e2e[m.Name] = true
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %d is %s [%s], the benchmark prints %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end metric %s: better = %q", m.Name, m.Better)
		}
	}
	if !e2e["setup_s"] {
		t.Error("setup_s is missing")
	}
	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark (at most 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name("per-layer", m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d is %s [%s], the benchmark prints %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %s: better = %q", m.Name, m.Better)
		}
		for _, mv := range perLayer[i].moves {
			if !e2e[mv.metric] || !workloads[mv.workload] {
				t.Errorf("per-layer metric %s should move %s on %s, which do not both exist", m.Name, mv.metric, mv.workload)
			}
		}
	}
}

// TestSmoke runs all four workloads untraced and one traced at toy scale
// against real serve children, so the benchmark cannot rot unnoticed. It
// spawns about thirty servers, so it is skipped under -short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real gsketch serve children")
	}
	if err := refuseIfServing(); err != nil {
		t.Skip(err)
	}
	e, err := newEnv("..")
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	buildTime, err := e.build()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range shapes {
		for _, traced := range []bool{false, true} {
			if traced && i != 1 && i != 3 {
				continue // one ingest and the replication workload cover every traced path
			}
			out, err := runWorkload(e, s.tiny(), 1, traced, poolChunk, buildTime)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", s.name, traced, out.Correct, out.Attempted, out.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", s.name, traced, len(out.Metrics), len(defs))
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(e.runDir, "*")); len(left) != 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}
