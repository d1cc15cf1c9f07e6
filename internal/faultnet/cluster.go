package faultnet

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"sync/atomic"
	"time"

	"graphsketch/internal/hashing"
	"graphsketch/internal/runtime"
	"graphsketch/internal/service"
	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// CrashPlan is a seeded schedule of site deaths: at each batch boundary a
// site's server is killed (Server.Kill) with CrashProb, and a crash tears
// 1..MaxTornBytes (default 64) off its log's tail with TornTailProb.
type CrashPlan struct {
	Seed                    uint64
	CrashProb, TornTailProb float64
	MaxTornBytes            int
}

// Scenario is one column of the failure matrix.
type Scenario struct {
	Name    string
	Faults  FaultPlan
	Crashes CrashPlan
}

// Scenarios returns the failure matrix for a seed. The rates are harsh so
// that the retry and recovery machinery measurably works on every run.
func Scenarios(seed uint64) []Scenario {
	lossy := FaultPlan{Seed: seed, DropProb: 0.20, DropReplyProb: 0.20, DupProb: 0.25, DelayBase: 500, DelayJitter: 4000}
	crashy := CrashPlan{Seed: seed ^ 0xC0FFEE, CrashProb: 0.20, TornTailProb: 0.5, MaxTornBytes: 80}
	chaos, chaosCrashes := lossy, crashy
	chaos.CorruptProb, chaosCrashes.CrashProb = 0.15, 0.15
	return []Scenario{
		{Name: "clean"},
		{Name: "lossy", Faults: lossy},
		{Name: "corrupting", Faults: FaultPlan{Seed: seed ^ 0xA5A5, CorruptProb: 0.20, DelayBase: 500, DelayJitter: 2000}},
		{Name: "crashy", Crashes: crashy},
		{Name: "chaos", Faults: chaos, Crashes: chaosCrashes},
	}
}

// Config is one deployment.
type Config struct {
	Sites         int
	Batch         int // updates per ingest request; crashes fall on its boundaries
	SnapshotEvery int // the sites' WAL snapshot interval, 0 = never
	// Bundle is every site's sketch shape; its seed also splits the stream.
	Bundle  service.BundleConfig
	Faults  FaultPlan
	Crashes CrashPlan
	// Unreachable lists sites partitioned away once fed.
	Unreachable []int
}

// Report is the outcome of one run. Its times are virtual, so one seed
// always produces the same report.
type Report struct {
	Sites        int     `json:"sites"`
	Updates      int     `json:"updates"`
	Coverage     float64 `json:"coverage"` // fraction of sites folded
	BitIdentical bool    `json:"bit_identical"`

	Crashes    int `json:"crashes"`
	Recoveries int `json:"recoveries"`
	// RecoveryTimeUs charges a restart 2 ms plus 1 µs per update its WAL
	// replays; CollectTimeUs is the pulls' virtual time, -1 below full
	// coverage.
	RecoveryTimeUs int64 `json:"recovery_time_us"`
	CollectTimeUs  int64 `json:"collect_time_us"`

	// Sealed bodies carried again on the same route; sealed bodies whose
	// envelope check fired (at a site or the coordinator); duplicates a
	// site refused by position.
	Retransmissions    int64 `json:"retransmissions"`
	RetransmittedBytes int64 `json:"retransmitted_bytes"`
	CorruptPayloads    int64 `json:"corrupt_payloads"`
	StalePayloads      int64 `json:"stale_payloads"`

	// The fed sites' WALs, summed.
	WalBytes          int64    `json:"wal_bytes"`
	WalLogBytes       int64    `json:"wal_log_bytes"`
	WalSnapshotBytes  int64    `json:"wal_snapshot_bytes"`
	WalDurableUpdates int64    `json:"wal_durable_updates"`
	WalReplayUpdates  int64    `json:"wal_replay_updates"`
	Net               NetStats `json:"net"`
}

const attempts = 10 // the client ladder's tries per request, and pulls per site

// Run drives one deployment over st and returns its report and the
// coordinator's fold as a compact payload. Each site is a service.Server
// on its own directory behind httptest, fed its Stream.Partition share by
// Client.IngestStream, crashed and recovered per the plan, then pulled by
// Client.PayloadAt until a payload opens. Sites run one after another, so
// one site's state is resident at a time, and the payloads fold into a
// fresh service.Bundle once the last site is gone. want, when non-nil, is
// one bundle's payload over the whole stream; BitIdentical compares
// against it at full coverage.
func Run(cfg Config, st *stream.Stream, want []byte) (Report, []byte, error) {
	cfg.Sites, cfg.Batch = max(cfg.Sites, 1), max(cfg.Batch, 1)
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = math.MaxInt32
	}
	dir, err := os.MkdirTemp("", "faultnet-*")
	if err != nil {
		return Report{}, nil, err
	}
	defer os.RemoveAll(dir)
	base := &http.Transport{}
	defer base.CloseIdleConnections()
	tr := NewTransport(cfg.Faults, base)
	crashes := hashing.NewRNG(cfg.Crashes.Seed ^ 0x1234567deadbeef)
	rep := Report{Sites: cfg.Sites, Updates: st.Len(), CollectTimeUs: -1}
	var payloads [][]byte
	var collect int64
	for i, part := range st.Partition(cfg.Sites, cfg.Bundle.Seed) {
		s := &site{cfg: service.Config{Dir: filepath.Join(dir, fmt.Sprint(i)), Bundle: cfg.Bundle,
			SnapshotEvery: cfg.SnapshotEvery, Fsync: runtime.FsyncNever, QueryTimeout: time.Minute,
			EpochEvery: math.MaxInt32}} // sites serve no queries: no epoch clones past the first
		if err := s.open(); err != nil {
			return rep, nil, err
		}
		// Listeners outlive their sites, so no port is reused within a run
		// and a late duplicate can reach only the dead site it was sent to.
		hs := httptest.NewServer(s)
		defer hs.Close()
		s.c = &service.Client{Base: hs.URL, HC: &http.Client{Transport: tr}, Timeout: time.Minute,
			Attempts: attempts, JitterSeed: cfg.Faults.Seed + uint64(i) + 1, Sleep: tr.Sleep}
		fed, err := s.feed(part.Updates, cfg, crashes, &rep)
		if err == nil && fed {
			if slices.Contains(cfg.Unreachable, i) {
				tr.partition(hs.Listener.Addr().String())
			}
			start := tr.now
			var payload []byte
			if payload, err = s.pull(len(part.Updates), &rep); payload != nil {
				payloads = append(payloads, payload)
			}
			collect += tr.now - start
		}
		s.kill()
		if err != nil {
			return rep, nil, fmt.Errorf("site %d: %w", i, err)
		}
	}

	merged := service.NewBundle(cfg.Bundle)
	for _, p := range payloads {
		if err := merged.MergeBytes(p); err != nil {
			return rep, nil, fmt.Errorf("coordinator: fold: %w", err)
		}
	}
	out, err := merged.MarshalBinaryCompact()
	if err != nil {
		return rep, nil, err
	}
	full := len(payloads) == cfg.Sites
	rep.Coverage = float64(len(payloads)) / float64(cfg.Sites)
	if full {
		rep.CollectTimeUs = collect
	}
	rep.BitIdentical = want != nil && full && bytes.Equal(out, want)
	rep.Retransmissions, rep.RetransmittedBytes, rep.StalePayloads = tr.resent, tr.resentBytes, tr.stale
	rep.CorruptPayloads += tr.rejected
	rep.Net = tr.stats
	return rep, out, nil
}

// site is one server behind a listener whose handler outlives the
// server's restarts, so the client's URL never changes.
type site struct {
	cfg     service.Config
	srv     *service.Server
	handler atomic.Value // http.Handler of srv
	c       *service.Client
}

func (s *site) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.Load().(http.Handler).ServeHTTP(w, r)
}

func (s *site) open() (err error) {
	if s.srv, err = service.NewServer(s.cfg); err == nil {
		s.handler.Store(s.srv.Handler())
	}
	return err
}

// kill stops the server and collects its live bundle and epoch clone
// before the next server allocates, so two never sit side by side.
func (s *site) kill() {
	if s.srv == nil {
		return // a restart failed to open
	}
	s.srv.Kill()
	s.handler.Store(http.NotFoundHandler())
	s.srv = nil
	goruntime.GC()
}

// feed drives ups into the site. At each batch boundary the crash plan
// draws; at a crash the prefix so far is fed, the server killed, its log
// maybe torn, and the server reopened on the same directory. The next
// IngestStream resumes at the recovered position: its first batch asserts
// position 0 and the 409 answer re-syncs it. It reports false when the
// client ladder gave up on the site.
func (s *site) feed(ups []stream.Update, cfg Config, rng *hashing.RNG, rep *Report) (bool, error) {
	for b := cfg.Batch; b < len(ups)+cfg.Batch; b += cfg.Batch {
		if rng.Float64() >= cfg.Crashes.CrashProb {
			continue
		}
		if _, _, err := s.c.IngestStream("t", ups[:min(b, len(ups))], cfg.Batch); err != nil {
			return false, nil
		}
		s.kill()
		rep.Crashes++
		if rng.Float64() < cfg.Crashes.TornTailProb {
			if err := runtime.TearLog(filepath.Join(s.cfg.Dir, "t"), 1+rng.Intn(cmp.Or(cfg.Crashes.MaxTornBytes, 64))); err != nil {
				return false, err
			}
		}
		if err := s.open(); err != nil {
			return false, err
		}
		_, _, _, replay, err := s.srv.WALStats(context.Background(), "t")
		if err != nil {
			return false, fmt.Errorf("recover: %w", err)
		}
		rep.Recoveries++
		rep.RecoveryTimeUs += 2_000 + int64(replay)
	}
	if _, _, err := s.c.IngestStream("t", ups, cfg.Batch); err != nil {
		return false, nil
	}
	durable, logB, snapB, replay, err := s.srv.WALStats(context.Background(), "t")
	rep.WalBytes += int64(logB + snapB)
	rep.WalLogBytes += int64(logB)
	rep.WalSnapshotBytes += int64(snapB)
	rep.WalDurableUpdates += int64(durable)
	rep.WalReplayUpdates += int64(replay)
	return err == nil, err
}

// pull fetches the site's sealed payload, re-pulling while it fails
// wire.Open. A site the ladder cannot reach yields nothing: the
// coordinator answers without it.
func (s *site) pull(want int, rep *Report) ([]byte, error) {
	for range attempts {
		sealed, pos, _, err := s.c.PayloadAt("t")
		if err != nil {
			return nil, nil
		}
		if payload, _, err := wire.Open(sealed); err != nil {
			rep.CorruptPayloads++
		} else if pos != want {
			return nil, fmt.Errorf("payload at position %d, partition has %d updates", pos, want)
		} else {
			return payload, nil
		}
	}
	return nil, nil
}
