package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSimCommandEmitsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := simCommand([]string{"-n", "64", "-churn", "200"}, &buf); err != nil {
		t.Fatal(err)
	}
	var rep SimReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("sim output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("want 5 failure-matrix rows, got %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Coverage != 1.0 {
			t.Fatalf("scenario %s: retry layer must reach full coverage, got %v", r.Scenario, r.Coverage)
		}
		if !r.BitIdentical {
			t.Fatalf("scenario %s: recovered merge must be bit-identical to the single-site run", r.Scenario)
		}
		if r.Net.Messages <= 0 {
			t.Fatalf("scenario %s: implausible message count %d", r.Scenario, r.Net.Messages)
		}
		switch r.Scenario {
		case "crashy", "chaos":
			if r.Crashes == 0 || r.RecoveryTimeUs <= 0 {
				t.Fatalf("scenario %s: crash plan must exercise recovery (crashes=%d, recovery_time_us=%d)",
					r.Scenario, r.Crashes, r.RecoveryTimeUs)
			}
		case "lossy", "corrupting":
			if r.RetransmittedBytes <= 0 {
				t.Fatalf("scenario %s: faults must force retransmission, got %d bytes",
					r.Scenario, r.RetransmittedBytes)
			}
		}
	}
}

func TestSimCommandScenarioFilter(t *testing.T) {
	var buf bytes.Buffer
	if err := simCommand([]string{"-n", "48", "-churn", "100", "-scenarios", "clean"}, &buf); err != nil {
		t.Fatal(err)
	}
	var rep SimReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Scenario != "clean" {
		t.Fatalf("want one clean row, got %+v", rep.Rows)
	}
	if err := simCommand([]string{"-scenarios", "no-such"}, &buf); err == nil {
		t.Fatal("unknown scenario must error")
	}
}

// TestSimCommandDeterministic pins that a seed reproduces the report byte
// for byte. The report has no wall-clock field: recovery and collect times
// are charged to a virtual clock, so nothing needs excluding.
func TestSimCommandDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	args := []string{"-n", "48", "-churn", "100", "-seed", "7", "-scenarios", "chaos"}
	if err := simCommand(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := simCommand(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed must reproduce the same report:\n%s\nvs\n%s", a.String(), b.String())
	}
}
