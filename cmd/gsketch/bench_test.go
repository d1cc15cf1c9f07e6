package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestBenchCommandEmitsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	// -cpus "" skips the multi-core sweep; TestBenchCommandCpuSweep owns it.
	err := benchCommand([]string{"-n", "32", "-updates", "20000", "-workers", "1,2",
		"-merge-n", "64", "-merge-updates", "64", "-merge-sites", "4",
		"-spanner-n", "48", "-spanner-updates", "8000", "-cpus", ""}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("bench output is not valid JSON: %v\n%s", err, buf.String())
	}
	// baseline, arena-scalar, arena, parallel x2, 3 decode rows, 3 merge
	// rows, 1 wire row, 4 spanner rows.
	if len(rep.Results) != 16 {
		t.Fatalf("want 16 results, got %d", len(rep.Results))
	}
	if !rep.ParallelBitIdentical {
		t.Fatal("parallel ingest must be bit-identical to sequential")
	}
	if !rep.BatchBitIdentical {
		t.Fatal("batched ingest must be bit-identical to per-update ingest")
	}
	if !rep.MergeBitIdentical {
		t.Fatal("k-way and wire merges must be bit-identical to pairwise Add")
	}
	if !rep.CompactRoundTrip {
		t.Fatal("wire encodings must round-trip bit-identically")
	}
	if rep.ArenaSpeedup <= 1 {
		t.Fatalf("arena should beat the pointer baseline, speedup = %.2f", rep.ArenaSpeedup)
	}
	if rep.WireCompactBytes <= 0 || int64(rep.WireCompactBytes) > 6*rep.TotalCells {
		t.Fatalf("compact wire bytes %d exceed 6 per cell (%d cells)", rep.WireCompactBytes, rep.TotalCells)
	}
	decodes := 0
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 || r.Words <= 0 || r.Ops <= 0 {
			t.Fatalf("implausible result row: %+v", r)
		}
		switch r.Name {
		case "forest-extract", "mincut-decode", "sparsify-decode",
			"merge-pairwise", "merge-many", "merge-bytes", "wire-compact",
			"spanner-build-baseline", "spanner-build",
			"recurse-connect-baseline", "recurse-connect":
			decodes++
			if r.NsPerUpdate != 0 {
				t.Fatalf("row %q must not join the ns/update trajectory", r.Name)
			}
		default:
			if r.NsPerUpdate != r.NsPerOp {
				t.Fatalf("ingest row %q: ns_per_update %v != ns_per_op %v", r.Name, r.NsPerUpdate, r.NsPerOp)
			}
		}
	}
	if decodes != 11 {
		t.Fatalf("want 11 decode/merge/wire/spanner rows, got %d", decodes)
	}
	if !rep.SpannerBitIdentical {
		t.Fatal("banked/planned spanner paths must match the retained baseline")
	}
	if rep.SpannerSpeedup <= 1 || rep.RecurseSpeedup <= 1 {
		t.Fatalf("rebuilt spanner paths should beat the scalar baseline: bs %.2f, rc %.2f",
			rep.SpannerSpeedup, rep.RecurseSpeedup)
	}
	if rep.RecurseAllocRatio <= 1 {
		t.Fatalf("banked recurse-connect should allocate less than the baseline: ratio %.2f", rep.RecurseAllocRatio)
	}
}

func TestBenchCommandCpuSweep(t *testing.T) {
	var buf bytes.Buffer
	err := benchCommand([]string{"-n", "32", "-updates", "5000", "-workers", "1",
		"-cpus", "1,2", "-sweep-n", "90",
		"-decode-n", "32", "-decode-updates", "5000",
		"-merge-n", "64", "-merge-updates", "64", "-merge-sites", "4",
		"-spanner-n", "48", "-spanner-updates", "8000"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("bench output is not valid JSON: %v\n%s", err, buf.String())
	}
	if rep.GoVersion == "" || rep.GoArch == "" || rep.GoOS == "" || rep.NumCPU <= 0 || rep.GoMaxProcs <= 0 {
		t.Fatalf("machine-context header incomplete: %q %q %q %d %d",
			rep.GoVersion, rep.GoOS, rep.GoArch, rep.NumCPU, rep.GoMaxProcs)
	}
	sweep := map[string][]int{}
	for _, r := range rep.Results {
		if r.Cpus == 0 {
			continue
		}
		sweep[r.Name] = append(sweep[r.Name], r.Cpus)
		if r.Name == "multicore-ingest" {
			if r.NsPerUpdate != r.NsPerOp {
				t.Fatalf("ingest sweep row: ns_per_update %v != ns_per_op %v", r.NsPerUpdate, r.NsPerOp)
			}
		} else if r.NsPerUpdate != 0 {
			t.Fatalf("sweep row %q must not join the ns/update trajectory", r.Name)
		}
		if r.Cpus == 1 && r.ParallelEfficiency != 1 {
			t.Fatalf("%q at cpus=1: efficiency %v, want the 1.0 reference", r.Name, r.ParallelEfficiency)
		}
		if r.ParallelEfficiency <= 0 {
			t.Fatalf("%q at cpus=%d: missing parallel efficiency", r.Name, r.Cpus)
		}
	}
	for _, name := range []string{"multicore-ingest", "multicore-merge", "multicore-decode"} {
		if got := sweep[name]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("%s sweep rows at cpus %v, want [1 2]", name, got)
		}
	}
	if rep.ParallelEfficiency <= 0 {
		t.Fatal("report must carry the min parallel efficiency at the largest cpus setting")
	}
	// Bit-identity across worker/cpu counts is the non-negotiable part of
	// the sweep; efficiency thresholds live in CI where core counts are known.
	if !rep.ParallelBitIdentical || !rep.MergeBitIdentical || !rep.DecodeBitIdentical {
		t.Fatalf("sweep broke bit-identity: ingest=%v merge=%v decode=%v",
			rep.ParallelBitIdentical, rep.MergeBitIdentical, rep.DecodeBitIdentical)
	}
}

func TestBenchCommandRejectsBadWorkers(t *testing.T) {
	var buf bytes.Buffer
	if err := benchCommand([]string{"-workers", "0"}, &buf); err == nil {
		t.Fatal("worker count 0 must be rejected")
	}
	if err := benchCommand([]string{"-workers", "x"}, &buf); err == nil {
		t.Fatal("non-numeric workers must be rejected")
	}
}

func TestBenchCommandRejectsBadSizes(t *testing.T) {
	var buf bytes.Buffer
	if err := benchCommand([]string{"-n", "1"}, &buf); err == nil {
		t.Fatal("-n 1 must be rejected")
	}
	if err := benchCommand([]string{"-updates", "0"}, &buf); err == nil {
		t.Fatal("-updates 0 must be rejected")
	}
	if err := benchCommand([]string{"-spanner-n", "1"}, &buf); err == nil {
		t.Fatal("-spanner-n 1 must be rejected")
	}
	if err := benchCommand([]string{"-recurse-k", "1"}, &buf); err == nil {
		t.Fatal("-recurse-k 1 must be rejected")
	}
}
