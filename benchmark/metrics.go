package main

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units and directions (a test keeps the two in step); its
// schema has no room for the interaction table, so that lives here: moves
// says which end-to-end metric, on which workload, a per-layer metric is
// expected to move. Later issues refer to all of these names verbatim.
type metricDef struct {
	name, unit string
	moves      []move
}

type move struct{ metric, workload string }

const (
	wBulk    = "ingest-bulk"
	wTrickle = "ingest-trickle"
	wQuery   = "query-mixed"
	wRecover = "recover-replicate"
)

// endToEnd are the costs a user of `gsketch serve` sees.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ingest_updates_per_s", unit: "updates/s"},
	{name: "ack_p50_ms", unit: "ms"},
	{name: "mincut_cold_p50_ms", unit: "ms"},
	{name: "sparsify_cold_p50_ms", unit: "ms"},
	{name: "spanner_cold_p50_ms", unit: "ms"},
	{name: "query_warm_p50_ms", unit: "ms"},
	{name: "recovery_p50_ms", unit: "ms"},
	{name: "replica_catchup_p50_ms", unit: "ms"},
	{name: "replica_lag_p50_ms", unit: "ms"},
	{name: "sync_bytes_per_update", unit: "bytes"},
	{name: "durable_bytes_per_update", unit: "bytes"},
	{name: "server_rss_peak_mb", unit: "MB"},
}

// putter returns a function that files a value under one of defs' names,
// with that metric's unit and n samples behind it. A name that is not in
// defs is a bug in the benchmark.
func putter(defs []metricDef, m map[string]metric) func(name string, v float64, n int) {
	return func(name string, v float64, n int) {
		for _, d := range defs {
			if d.name == name {
				m[name] = metric{Value: v, Unit: d.unit, n: n}
				return
			}
		}
		panic("benchmark: no metric called " + name)
	}
}

// endToEnd turns one run's samples into the end-to-end metrics. Every
// workload reports all of them: each run has a main phase shaped by the
// workload and the same kinds of recovery and replication steps after it.
func (r *results) endToEnd() map[string]metric {
	m := map[string]metric{}
	put := putter(endToEnd, m)
	put("setup_s", median(r.setupS), len(r.setupS))
	put("ingest_updates_per_s", median(r.rate), len(r.rate))
	put("ack_p50_ms", median(r.ack), len(r.ack))
	put("mincut_cold_p50_ms", median(r.cold[0]), len(r.cold[0]))
	put("sparsify_cold_p50_ms", median(r.cold[1]), len(r.cold[1]))
	put("spanner_cold_p50_ms", median(r.cold[2]), len(r.cold[2]))
	put("query_warm_p50_ms", median(r.warm), len(r.warm))
	put("recovery_p50_ms", median(r.recovery), len(r.recovery))
	put("replica_catchup_p50_ms", median(r.catchup), len(r.catchup))
	put("replica_lag_p50_ms", median(r.lag), len(r.lag))
	put("sync_bytes_per_update", float64(r.syncBytes)/float64(r.lagUpdates), int(r.lagUpdates/256))
	put("durable_bytes_per_update", float64(r.durableBytes)/float64(r.durableUpdates), 1)
	put("server_rss_peak_mb", r.rssPeakMB, 1)
	return m
}
