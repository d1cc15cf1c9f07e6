package main

import (
	"fmt"
	"path/filepath"
	"time"

	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
)

// perLayer are the single-layer metrics of the traced run; layers are this
// repository's modules. `_ms` values are per-call medians, shares and ratios
// use means so that they add up. moves is the interaction table: which
// end-to-end metric each should move, on which workload (README.md prints
// it; a test checks it names real metrics and workloads).
var perLayer = []metricDef{
	// cmd/gsketch + net/http
	{name: "http.ingest_overhead_ms", unit: "ms", moves: []move{{"ack_p50_ms", wTrickle}}},
	{name: "http.query_overhead_ms", unit: "ms", moves: []move{{"query_warm_p50_ms", wQuery}}},
	// The tails the client sees: the snapshot op (1 ingest in 16 at batch
	// 256), the publish stall (1 in 32 at batch 8), and the slow memo hit.
	// Per-layer rows because they move by a quarter to a half between runs
	// of the same code (a run holds two or three snapshot ops, and the tail
	// of a 0.2 ms round trip is the scheduler's), and every end-to-end
	// metric must hold a bound of at most 25 % on every workload.
	{name: "ack_p95_ms", unit: "ms"},
	{name: "ack_p99_ms", unit: "ms"},
	{name: "query_warm_p95_ms", unit: "ms"},
	{name: "process.server_cpu_s", unit: "s", moves: []move{{"ingest_updates_per_s", wBulk}}},
	{name: "process.server_cpu_us_per_update", unit: "us", moves: []move{{"ingest_updates_per_s", wBulk}, {"ingest_updates_per_s", wTrickle}}},
	{name: "process.server_rss_end_mb", unit: "MB", moves: []move{{"server_rss_peak_mb", wBulk}}},
	{name: "benchmark.build_s", unit: "s"},
	{name: "benchmark.trace_overhead_share", unit: "share"},
	// internal/service: codec and writer loop
	{name: "service.encode_updates_ms", unit: "ms", moves: []move{{"ack_p50_ms", wTrickle}}},
	{name: "service.decode_updates_ms", unit: "ms", moves: []move{{"ack_p50_ms", wTrickle}}},
	{name: "service.server_ingest_ms", unit: "ms", moves: []move{{"ack_p50_ms", wTrickle}, {"ack_p50_ms", wBulk}}},
	{name: "service.unaccounted_ms", unit: "ms", moves: []move{{"ack_p50_ms", wTrickle}}},
	{name: "service.unaccounted_share", unit: "share"},
	{name: "service.ingest_ops", unit: "count"},
	{name: "service.ingest_updates", unit: "count"},
	{name: "service.ingest_failed", unit: "count"},
	{name: "service.epochs_published", unit: "count", moves: []move{{"ingest_updates_per_s", wBulk}}},
	// internal/service: bundle
	{name: "service.bundle_update_batch_ms", unit: "ms", moves: []move{{"ingest_updates_per_s", wBulk}}},
	{name: "service.bundle_resident_bytes_ms", unit: "ms", moves: []move{{"ack_p50_ms", wTrickle}, {"ingest_updates_per_s", wTrickle}, {"ingest_updates_per_s", wBulk}}},
	{name: "service.bundle_manifest_ms", unit: "ms", moves: []move{{"ingest_updates_per_s", wBulk}, {"ack_p50_ms", wBulk}, {"ingest_updates_per_s", wTrickle}}},
	{name: "service.bundle_clone_ms", unit: "ms", moves: []move{{"ingest_updates_per_s", wBulk}, {"ack_p50_ms", wBulk}, {"ingest_updates_per_s", wTrickle}, {"server_rss_peak_mb", wBulk}, {"sparsify_cold_p50_ms", wQuery}}},
	{name: "service.publish_share", unit: "share", moves: []move{{"ingest_updates_per_s", wBulk}, {"ingest_updates_per_s", wTrickle}}},
	{name: "service.bundle_marshal_compact_ms", unit: "ms", moves: []move{{"replica_lag_p50_ms", wRecover}}},
	{name: "service.bundle_marshal_banks_ms", unit: "ms", moves: []move{{"replica_catchup_p50_ms", wRecover}, {"replica_lag_p50_ms", wRecover}}},
	{name: "service.bundle_merge_bytes_ms", unit: "ms", moves: []move{{"recovery_p50_ms", wRecover}, {"replica_catchup_p50_ms", wRecover}}},
	{name: "service.payload_bytes", unit: "bytes", moves: []move{{"sync_bytes_per_update", wRecover}, {"durable_bytes_per_update", wBulk}}},
	// internal/service: query, sync, scrub
	{name: "service.query_mincut_warm_ms", unit: "ms", moves: []move{{"query_warm_p50_ms", wQuery}}},
	{name: "service.query_sparsify_warm_ms", unit: "ms", moves: []move{{"query_warm_p50_ms", wQuery}}},
	{name: "service.query_spanner_warm_ms", unit: "ms", moves: []move{{"query_warm_p50_ms", wQuery}}},
	{name: "service.query_spanner_edge_warm_ms", unit: "ms", moves: []move{{"query_warm_p50_ms", wQuery}}},
	{name: "service.query_ops", unit: "count"},
	{name: "service.query_failed", unit: "count"},
	{name: "service.sync_probe_ms", unit: "ms", moves: []move{{"replica_lag_p50_ms", wRecover}}},
	{name: "service.sync_pull_ms", unit: "ms", moves: []move{{"replica_lag_p50_ms", wRecover}, {"replica_catchup_p50_ms", wRecover}}},
	{name: "service.sync_install_ms", unit: "ms", moves: []move{{"replica_lag_p50_ms", wRecover}, {"replica_catchup_p50_ms", wRecover}}},
	{name: "service.sync_delta_ratio", unit: "ratio", moves: []move{{"sync_bytes_per_update", wRecover}}},
	{name: "service.sync_rounds", unit: "count"},
	{name: "service.scrub_tenant_ms", unit: "ms"},
	// internal/runtime
	{name: "runtime.wal_append_ms", unit: "ms", moves: []move{{"ack_p50_ms", wTrickle}}},
	{name: "runtime.wal_snapshot_ms", unit: "ms", moves: []move{{"ingest_updates_per_s", wBulk}, {"recovery_p50_ms", wRecover}}},
	{name: "runtime.wal_recover_ms", unit: "ms", moves: []move{{"recovery_p50_ms", wRecover}}},
	{name: "runtime.wal_install_snapshot_ms", unit: "ms", moves: []move{{"replica_lag_p50_ms", wRecover}, {"replica_catchup_p50_ms", wRecover}}},
	{name: "runtime.wal_log_bytes_per_update", unit: "bytes", moves: []move{{"durable_bytes_per_update", wTrickle}}},
	{name: "runtime.wal_snapshot_bytes", unit: "bytes", moves: []move{{"durable_bytes_per_update", wBulk}}},
	{name: "runtime.wal_replay_updates", unit: "count", moves: []move{{"recovery_p50_ms", wRecover}}},
	// internal/wire
	{name: "wire.seal_ms", unit: "ms", moves: []move{{"replica_lag_p50_ms", wRecover}}},
	{name: "wire.open_ms", unit: "ms", moves: []move{{"replica_lag_p50_ms", wRecover}}},
	{name: "wire.manifest_bytes", unit: "bytes", moves: []move{{"sync_bytes_per_update", wRecover}}},
	{name: "wire.manifest_diff_banks", unit: "share", moves: []move{{"sync_bytes_per_update", wRecover}, {"replica_lag_p50_ms", wRecover}}},
	// graphsketch facade → internal/core/*
	{name: "core.mincut_update_batch_ms", unit: "ms", moves: []move{{"ingest_updates_per_s", wBulk}}},
	{name: "core.sparsify_update_batch_ms", unit: "ms", moves: []move{{"ingest_updates_per_s", wBulk}}},
	{name: "core.mincut_clone_ms", unit: "ms", moves: []move{{"ingest_updates_per_s", wBulk}}},
	{name: "core.sparsify_clone_ms", unit: "ms", moves: []move{{"ingest_updates_per_s", wBulk}}},
	{name: "core.mincut_footprint_ms", unit: "ms", moves: []move{{"ack_p50_ms", wTrickle}}},
	{name: "core.sparsify_footprint_ms", unit: "ms", moves: []move{{"ack_p50_ms", wTrickle}}},
	{name: "core.mincut_decode_ms", unit: "ms", moves: []move{{"mincut_cold_p50_ms", wQuery}}},
	{name: "core.sparsify_decode_ms", unit: "ms", moves: []move{{"sparsify_cold_p50_ms", wQuery}}},
	{name: "core.spanner_build_ms", unit: "ms", moves: []move{{"spanner_cold_p50_ms", wQuery}}},
	{name: "core.update_batch_distinct_us_per_update", unit: "us", moves: []move{{"ingest_updates_per_s", wBulk}}},
	{name: "core.update_batch_hot_us_per_update", unit: "us"},
	// internal/sketchcore, internal/stream, internal/hashing
	{name: "stream.batch_distinct_fraction", unit: "share"},
	{name: "stream.coalesce_ms", unit: "ms", moves: []move{{"spanner_cold_p50_ms", wQuery}}},
	{name: "sketchcore.plan_build_us_per_update", unit: "us", moves: []move{{"ingest_updates_per_s", wBulk}}},
	{name: "sketchcore.apply_plan_us_per_update", unit: "us", moves: []move{{"ingest_updates_per_s", wBulk}}},
}

// The budget must reconcile: the shadow pipeline's spans may leave at most
// this share of the in-process server's ingest time unexplained, and tracing
// may cost at most this share of the traced replays' wall time.
const (
	maxUnaccountedShare = 0.15
	maxTraceOverhead    = 0.05
)

// applySteps are the shadow spans that make up one tenant.apply, in order.
var applySteps = []string{"runtime.wal_append", "service.bundle_update_batch", "runtime.wal_snapshot",
	"service.bundle_manifest", "service.bundle_clone", "service.bundle_resident_bytes"}

// runTraced replays the schedule in-process at two depths (the real
// service.Server and the shadow pipeline) beside a real serve child, reads
// both tracers, and returns the child's results and every per-layer metric.
// The child only runs the main phase: the HTTP and process rows need nothing
// else from it.
func runTraced(e *env, sc *schedule, buildTime time.Duration) (*results, map[string]metric, error) {
	c := &session{env: e, sched: sc, res: &results{}}
	defer c.close()
	if err := c.setup(); err != nil {
		return nil, nil, err
	}
	child := c.res
	start := time.Now()
	t1, t2 := newTracer(), newTracer()
	x, err := newInproc(e, sc, t1)
	if err != nil {
		return nil, nil, err
	}
	sh, err := newShadow(e, sc, t2)
	if err != nil {
		x.close()
		return nil, nil, err
	}
	// The child and the two replays advance in lockstep, op by op, so that a
	// slow minute on the machine slows all three and cancels out of the
	// differences between them.
	for i := 0; i < len(sc.ops) && err == nil; i++ {
		if p := sc.ops[i].phase; (p == phaseWarm || p == phaseMain) && c.a != nil {
			err = c.step(i)
		} else if p == phaseTail && c.a != nil {
			c.close() // the main phase is over: read the child's CPU and memory
		}
		if err == nil {
			err = x.step(i)
		}
		if err == nil {
			err = sh.step(i)
		}
	}
	if err == nil {
		err = x.finish()
	}
	if err == nil {
		err = sh.finish()
	}
	x.close() // also folds the replica's sync counters into x
	sh.close()
	if err != nil {
		return nil, nil, err
	}
	tracedWall := time.Since(start)

	mainIngest := func(id int) bool {
		return id >= 0 && sc.ops[id].kind == opIngest && sc.ops[id].phase == phaseMain
	}
	m := map[string]metric{}
	put := putter(perLayer, m)
	// med files the per-call median of a span name under a metric name.
	med := func(name string, t *tracer, spanName string, keep func(int) bool) {
		d := t.durations(spanName, keep)
		put(name, median(d), len(d))
	}

	// Budget: mean ack = http overhead + Σ layer means + unaccounted.
	ingest := t1.durations("service.server_ingest", mainIngest)
	ops := float64(len(ingest))
	serverMean := mean(ingest)
	stepMean := map[string]float64{}
	stepSum := 0.0
	for _, name := range applySteps {
		total := 0.0
		for _, d := range t2.durations(name, mainIngest) {
			total += d
		}
		stepMean[name] = total / ops
		stepSum += total / ops
	}
	unaccounted := serverMean - stepSum
	ackMean := mean(child.ack)
	spans := len(t1.spans) + len(t2.spans)
	spanCost := spanCostNS()
	overhead := float64(spans) * spanCost / float64(tracedWall.Nanoseconds())

	fmt.Printf("# budget %s: mean ack %.3f ms = http overhead %.3f", sc.shape.name, ackMean, ackMean-serverMean)
	for _, name := range applySteps {
		fmt.Printf(" + %s %.3f", name, stepMean[name])
	}
	fmt.Printf(" + unaccounted %.3f (%.1f%% of the in-process server's %.3f ms)\n", unaccounted, 100*unaccounted/serverMean, serverMean)
	fmt.Printf("# tracing: %d spans at %.0f ns each over %.1f s of traced replay = %.4f%% overhead\n",
		spans, spanCost, tracedWall.Seconds(), 100*overhead)

	put("http.ingest_overhead_ms", ackMean-serverMean, len(child.ack))
	put("ack_p95_ms", tailLatency(child.ack, 20), len(child.ack))
	put("ack_p99_ms", tailLatency(child.ack, 100), len(child.ack))
	put("query_warm_p95_ms", tailLatency(child.warm, 20), len(child.warm))
	warmInproc := append(append(append(t1.durations("service.query_mincut_warm", nil), t1.durations("service.query_sparsify_warm", nil)...),
		t1.durations("service.query_spanner_warm", nil)...), t1.durations("service.query_spanner_edge_warm", nil)...)
	put("http.query_overhead_ms", mean(child.warm)-mean(warmInproc), len(child.warm))
	put("process.server_cpu_s", child.cpuSeconds, 1)
	put("process.server_cpu_us_per_update", child.cpuSeconds*1e6/float64(child.updates), child.updates)
	put("process.server_rss_end_mb", child.rssEndMB, 1)
	put("benchmark.build_s", buildTime.Seconds(), 1)
	put("benchmark.trace_overhead_share", overhead, spans)

	med("service.encode_updates_ms", t2, "service.encode_updates", mainIngest)
	med("service.decode_updates_ms", t2, "service.decode_updates", mainIngest)
	put("service.server_ingest_ms", median(ingest), len(ingest))
	put("service.unaccounted_ms", unaccounted, len(ingest))
	put("service.unaccounted_share", unaccounted/serverMean, len(ingest))
	put("service.ingest_ops", float64(x.ingestOps), 1)
	put("service.ingest_updates", float64(x.ingestUpdates), 1)
	put("service.ingest_failed", float64(x.ingestFailed), 1)
	put("service.epochs_published", float64(sh.epochs), 1)

	med("service.bundle_update_batch_ms", t2, "service.bundle_update_batch", mainIngest)
	med("service.bundle_resident_bytes_ms", t2, "service.bundle_resident_bytes", mainIngest)
	med("service.bundle_manifest_ms", t2, "service.bundle_manifest", mainIngest)
	med("service.bundle_clone_ms", t2, "service.bundle_clone", mainIngest)
	put("service.publish_share", (stepMean["service.bundle_manifest"]+stepMean["service.bundle_clone"])/mean(t2.durations("shadow.apply", mainIngest)), len(ingest))
	med("service.bundle_marshal_compact_ms", t2, "service.bundle_marshal_compact", nil)
	med("service.bundle_marshal_banks_ms", t2, "service.bundle_marshal_banks", nil)
	med("service.bundle_merge_bytes_ms", t2, "service.bundle_merge_bytes", nil)
	put("service.payload_bytes", float64(x.payloadBytes), 1)

	for _, q := range []string{"mincut", "sparsify", "spanner", "spanner_edge"} {
		med("service.query_"+q+"_warm_ms", t1, "service.query_"+q+"_warm", nil)
	}
	put("service.query_ops", float64(x.queryOps), 1)
	put("service.query_failed", float64(x.queryFailed), 1)
	med("service.sync_probe_ms", t1, "service.sync_probe", nil)
	med("service.sync_pull_ms", t1, "service.sync_pull", nil)
	med("service.sync_install_ms", t1, "service.sync_install", nil)
	deltaRatio := 1.0 // every round fell back to a full pull
	if x.deltaFullBytes > 0 {
		deltaRatio = float64(x.deltaBytes) / float64(x.deltaFullBytes)
	}
	put("service.sync_delta_ratio", deltaRatio, x.syncRounds)
	put("service.sync_rounds", float64(x.syncRounds), 1)
	med("service.scrub_tenant_ms", t1, "service.scrub_tenant", nil)

	med("runtime.wal_append_ms", t2, "runtime.wal_append", mainIngest)
	med("runtime.wal_snapshot_ms", t2, "runtime.wal_snapshot", nil)
	med("runtime.wal_recover_ms", t2, "runtime.wal_recover", func(id int) bool { return id >= 0 && sc.ops[id].kind == opRestart })
	med("runtime.wal_install_snapshot_ms", t2, "runtime.wal_install_snapshot", nil)
	put("runtime.wal_log_bytes_per_update", sh.logBytesPerUpdate, 1)
	put("runtime.wal_snapshot_bytes", float64(sh.snapshotBytes), 1)
	put("runtime.wal_replay_updates", float64(sh.replayUpdates), 1)

	med("wire.seal_ms", t2, "wire.seal", nil)
	med("wire.open_ms", t2, "wire.open", nil)
	put("wire.manifest_bytes", float64(sh.manifestBytes), 1)
	put("wire.manifest_diff_banks", mean(sh.diffShare), len(sh.diffShare))

	for _, c := range []string{"mincut_update_batch", "sparsify_update_batch", "mincut_clone", "sparsify_clone", "mincut_footprint", "sparsify_footprint"} {
		med("core."+c+"_ms", t2, "core."+c, mainIngest)
	}
	med("core.mincut_decode_ms", t2, "core.mincut_decode", nil)
	med("core.sparsify_decode_ms", t2, "core.sparsify_decode", nil)
	med("core.spanner_build_ms", t2, "core.spanner_build", nil)
	kernel, updates := 0.0, 0
	for _, name := range []string{"core.mincut_update_batch", "core.sparsify_update_batch"} {
		for _, d := range t2.durations(name, mainIngest) {
			kernel += d
		}
	}
	var mainUps []stream.Update
	var mainBatches [][]stream.Update
	for _, o := range sc.ops {
		if o.kind == opIngest && o.phase == phaseMain {
			updates += len(o.ups)
			mainUps = append(mainUps, o.ups...)
			mainBatches = append(mainBatches, o.ups)
		}
	}
	put("core.update_batch_distinct_us_per_update", kernel*1000/float64(updates), updates)
	put("core.update_batch_hot_us_per_update", sh.hotKernelUS(), hotRepeats*len(sc.hot))

	put("stream.batch_distinct_fraction", sc.mainDistinctFraction(), len(mainBatches))
	coalesce := time.Now()
	(&stream.Stream{N: benchN, Updates: mainUps}).Coalesce()
	put("stream.coalesce_ms", ms(time.Since(coalesce)), len(mainUps))
	build, apply := planKernelUS(mainBatches)
	put("sketchcore.plan_build_us_per_update", build, updates)
	put("sketchcore.apply_plan_us_per_update", apply, updates)

	path := filepath.Join(e.root, "benchmark", "out", "trace-"+sc.shape.name+".json")
	selfT1, selfT2 := t1.selfMs(), t2.selfMs()
	if err := t1.write(path, map[string]any{"workload": sc.shape.name, "seed": sc.seed, "schedule_sha256": sc.hash(),
		"replay": "in-process service.Server", "self_ms_by_name": selfT1, "shadow_spans": t2.spans, "shadow_self_ms_by_name": selfT2}); err != nil {
		return nil, nil, err
	}

	// A shadow that drifts from tenant.apply must be noticed, not trusted.
	// The two ingest workloads have the op counts to judge it by. The gate
	// pairs each in-process ingest with the shadow's apply of the same batch
	// and judges the median difference: the two run one after the other, so
	// a stall spoils one pair, not the verdict (the budget line above uses
	// means, so that its terms add up, and moves with every stall).
	applies := t2.durations("shadow.apply", mainIngest)
	if len(applies) != len(ingest) {
		return nil, nil, fmt.Errorf("%d shadow applies for %d in-process ingests", len(applies), len(ingest))
	}
	gaps := make([]float64, len(ingest))
	for i := range ingest {
		gaps[i] = ingest[i] - applies[i]
	}
	share := median(gaps) / median(ingest)
	fmt.Printf("# reconcile: median(in-process ingest - shadow apply) = %.3f ms, %.1f%% of the median ingest (limit %.0f%%)\n",
		median(gaps), 100*share, 100*maxUnaccountedShare)
	ingestWorkload := sc.shape.name == wBulk || sc.shape.name == wTrickle
	if ingestWorkload && (share > maxUnaccountedShare || share < -maxUnaccountedShare) {
		return nil, nil, fmt.Errorf("budget does not reconcile: the shadow pipeline's apply differs from the in-process server's ingest by %.1f%% (limit %.0f%%)",
			100*share, 100*maxUnaccountedShare)
	}
	if overhead > maxTraceOverhead {
		return nil, nil, fmt.Errorf("tracing overhead %.2f%% exceeds %.0f%%", 100*overhead, 100*maxTraceOverhead)
	}
	return child, m, nil
}

const hotRepeats = 8

// hotKernelUS feeds the duplicate-heavy batch (256 updates over 16 edges) to
// the bare sketches, in µs per update. The batch nets to zero, so the
// sketches end as they began.
func (s *shadow) hotKernelUS() float64 {
	start := time.Now()
	for i := 0; i < hotRepeats; i++ {
		s.mc.UpdateBatch(s.sc.hot)
		s.sp.UpdateBatch(s.sc.hot)
	}
	return float64(time.Since(start).Microseconds()) / float64(hotRepeats*len(s.sc.hot))
}

// planKernelUS times EdgePlan.Build and Arena.ApplyPlan on a stand-in arena
// shaped like one AGM bank at n=64 (64 slots over the n² edge universe, 4
// repetitions), in µs per update.
func planKernelUS(batches [][]stream.Update) (build, apply float64) {
	arena := sketchcore.New(sketchcore.Config{Slots: benchN, Universe: benchN * benchN, Reps: 4, Seed: bundleConfig.Seed})
	var plan sketchcore.EdgePlan
	var buildNS, applyNS time.Duration
	updates := 0
	for _, ups := range batches {
		for len(ups) > 0 {
			t0 := time.Now()
			n := plan.Build(ups, benchN)
			t1 := time.Now()
			arena.ApplyPlan(&plan)
			applyNS += time.Since(t1)
			buildNS += t1.Sub(t0)
			updates += n
			ups = ups[n:]
		}
	}
	return float64(buildNS.Nanoseconds()) / 1e3 / float64(updates), float64(applyNS.Nanoseconds()) / 1e3 / float64(updates)
}
