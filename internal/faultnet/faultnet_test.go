package faultnet

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"graphsketch/internal/runtime"
	"graphsketch/internal/service"
	"graphsketch/internal/stream"
)

const testN = 16

// testBundle is the smallest bundle that still runs every member sketch:
// the properties here are about the protocol, not the sketch's accuracy.
func testBundle(seed uint64) service.BundleConfig {
	return service.BundleConfig{N: testN, K: 2, Eps: 1.0, SpannerK: 2, Seed: seed}
}

func testStream(seed uint64) *stream.Stream {
	return stream.GNP(testN, 0.3, seed).WithChurn(150, seed^3)
}

// compactOf returns the payload of one bundle fed ups: the oracle.
func compactOf(t *testing.T, cfg service.BundleConfig, ups ...[]stream.Update) []byte {
	t.Helper()
	b := service.NewBundle(cfg)
	for _, u := range ups {
		b.UpdateBatch(u)
	}
	out, err := b.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// chaosConfig is the matrix's chaos column: every fault class at once, at
// rates high enough that most runs see drops, duplicates, corruption and
// crashes, yet full coverage is still reachable within the retry budgets.
func chaosConfig(seed uint64) Config {
	sc := Scenarios(seed)[4]
	if sc.Name != "chaos" {
		panic("the matrix's last column is no longer chaos")
	}
	return Config{Sites: 4, Batch: 20, SnapshotEvery: 60, Bundle: testBundle(seed), Faults: sc.Faults, Crashes: sc.Crashes}
}

// runChaos drives one run against the whole-stream oracle.
func runChaos(t *testing.T, cfg Config) (Report, []byte) {
	t.Helper()
	st := testStream(cfg.Bundle.Seed)
	rep, merged, err := Run(cfg, st, compactOf(t, cfg.Bundle, st.Updates))
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Bundle.Seed, err)
	}
	return rep, merged
}

// TestChaosBitIdentity is the headline property: under seeded
// drop/duplicate/corrupt/crash schedules on the service stack, whenever
// coverage reaches 1.0 the coordinator's fold is bit-identical to one
// bundle fed the whole stream. The pinned seeds all reach full coverage.
func TestChaosBitIdentity(t *testing.T) {
	sawCrash, sawCorrupt, sawDup, sawDrop := false, false, false, false
	for seed := uint64(1); seed <= 12; seed++ {
		rep, _ := runChaos(t, chaosConfig(seed))
		if rep.Coverage != 1.0 {
			t.Fatalf("seed %d: coverage %.2f, want 1.0 (%+v)", seed, rep.Coverage, rep)
		}
		if !rep.BitIdentical {
			t.Fatalf("seed %d: merged bundle not bit-identical at full coverage: %+v", seed, rep)
		}
		if rep.CollectTimeUs < 0 {
			t.Fatalf("seed %d: full coverage but no collect time", seed)
		}
		if rep.Crashes != rep.Recoveries {
			t.Fatalf("seed %d: %d crashes but %d recoveries", seed, rep.Crashes, rep.Recoveries)
		}
		if rep.WalDurableUpdates != int64(rep.Updates) {
			t.Fatalf("seed %d: sites vouch for %d of %d updates", seed, rep.WalDurableUpdates, rep.Updates)
		}
		sawCrash = sawCrash || rep.Crashes > 0
		sawCorrupt = sawCorrupt || rep.CorruptPayloads > 0
		sawDup = sawDup || rep.Net.Duplicate > 0
		sawDrop = sawDrop || rep.Net.Dropped > 0
	}
	// The matrix must exercise every fault class across seeds, or the
	// bit-identity claim is vacuous.
	if !sawCrash || !sawCorrupt || !sawDup || !sawDrop {
		t.Fatalf("fault classes not all exercised: crash=%v corrupt=%v dup=%v drop=%v",
			sawCrash, sawCorrupt, sawDup, sawDrop)
	}
}

// TestChaosDeterminism pins that a seed is a complete schedule: two runs
// produce equal reports and equal folds. The report has no wall-clock
// field (recovery and collect time are virtual), so the equality covers
// every count and all of the time it reports.
func TestChaosDeterminism(t *testing.T) {
	a, am := runChaos(t, chaosConfig(5))
	b, bm := runChaos(t, chaosConfig(5))
	if !reflect.DeepEqual(a, b) || !bytes.Equal(am, bm) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestGracefulDegradation pins the partial-answer contract: with one site
// partitioned away, the coordinator answers from the others, reports the
// reduced coverage, and its fold is exactly the sketch of the covered
// partitions.
func TestGracefulDegradation(t *testing.T) {
	const seed = 9
	st := stream.GNP(testN, 0.3, seed)
	cfg := Config{Sites: 4, Batch: 20, Bundle: testBundle(seed), Faults: FaultPlan{Seed: seed}, Unreachable: []int{2}}
	rep, merged, err := Run(cfg, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage != 0.75 || rep.CollectTimeUs != -1 || rep.BitIdentical {
		t.Fatalf("degraded report wrong: %+v", rep)
	}
	var covered [][]stream.Update
	for i, p := range st.Partition(4, seed) {
		if i != 2 {
			covered = append(covered, p.Updates)
		}
	}
	if !bytes.Equal(merged, compactOf(t, cfg.Bundle, covered...)) {
		t.Fatal("degraded answer is not the sketch of the covered partitions")
	}
}

// TestAllPayloadsCorrupted pins that a hostile link, flipping a bit in
// every sealed body, exhausts the retries without a panic and without any
// corrupted body being accepted: every flip is caught by an envelope
// check, and nothing is covered.
func TestAllPayloadsCorrupted(t *testing.T) {
	cfg := Config{Sites: 2, Batch: 20, Bundle: testBundle(3), Faults: FaultPlan{Seed: 3, CorruptProb: 1.0}}
	rep, _ := runChaos(t, cfg)
	if rep.Coverage != 0 {
		t.Fatalf("coverage %.2f from a fully corrupting link, want 0", rep.Coverage)
	}
	if rep.CorruptPayloads == 0 || rep.CorruptPayloads != rep.Net.Corrupted {
		t.Fatalf("%d bodies corrupted, %d refused: %+v", rep.Net.Corrupted, rep.CorruptPayloads, rep)
	}
}

// TestEpochIdempotence pins that duplicated requests are refused by
// position, not applied twice: heavy duplication, some of it overtaken by
// later requests, still yields bit-identity.
func TestEpochIdempotence(t *testing.T) {
	var stale int64
	for seed := uint64(20); seed < 26; seed++ {
		cfg := Config{Sites: 3, Batch: 20, Bundle: testBundle(seed), Faults: FaultPlan{Seed: seed, DupProb: 0.9, DelayJitter: 3_000}}
		rep, _ := runChaos(t, cfg)
		if rep.Coverage != 1.0 || !rep.BitIdentical {
			t.Fatalf("seed %d: coverage=%.2f identical=%v under duplication", seed, rep.Coverage, rep.BitIdentical)
		}
		stale += rep.StalePayloads
	}
	if stale == 0 {
		t.Fatal("no duplicate was ever refused by position")
	}
}

// TestMergeLostReplyFoldsOnce pins that Client.Merge does not re-send a
// merge the server may have applied: the reply to the first merge is lost
// after the server folded it, and the tenant must hold that fold once.
func TestMergeLostReplyFoldsOnce(t *testing.T) {
	cfg := testBundle(4)
	parts := testStream(4).Partition(2, 4)
	srv, err := service.NewServer(service.Config{Dir: t.TempDir(), Bundle: cfg, Fsync: runtime.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Kill)
	ctx := context.Background()
	if _, err := srv.Ingest(ctx, "t", 0, parts[0].Updates); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	tr := NewTransport(FaultPlan{Seed: 1, DropReplyProb: 1}, http.DefaultTransport)
	c := &service.Client{Base: hs.URL, HC: &http.Client{Transport: tr}, Sleep: tr.Sleep}

	_, err = c.Merge("t", service.SealPayload(compactOf(t, cfg, parts[1].Updates)))
	if !errors.Is(err, service.ErrOutcomeUnknown) {
		t.Fatalf("merge with a lost reply: err = %v, want ErrOutcomeUnknown", err)
	}
	if got := tr.stats.Messages; got != 1 {
		t.Fatalf("merge sent %d times, want 1", got)
	}
	sealed, _, _, err := srv.Payload(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sealed, service.SealPayload(compactOf(t, cfg, parts[0].Updates, parts[1].Updates))) {
		t.Fatal("tenant does not hold exactly one fold of the merged payload")
	}
}

// TestTransportVirtualTime pins that backoff and delay advance the virtual
// clock only: a run that retries through many drops takes no real time
// waiting.
func TestTransportVirtualTime(t *testing.T) {
	start := time.Now()
	const minute = 60_000_000 // virtual microseconds per round trip
	cfg := Config{Sites: 2, Batch: 20, Bundle: testBundle(6), Faults: FaultPlan{Seed: 6, DropProb: 0.5, DelayBase: minute}}
	rep, _ := runChaos(t, cfg)
	if rep.Coverage != 1 || !rep.BitIdentical || rep.CollectTimeUs < 2*minute {
		t.Fatalf("lossy run: %+v", rep)
	}
	if wall := time.Since(start); wall > time.Duration(rep.CollectTimeUs)*time.Microsecond {
		t.Fatalf("run waited %v of real time for %dus of virtual time", wall, rep.CollectTimeUs)
	}
}
