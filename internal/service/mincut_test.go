package service

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"graphsketch/internal/agm"
	"graphsketch/internal/core/mincut"
	"graphsketch/internal/graph"
	"graphsketch/internal/hashing"
	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// fig1Reference runs Fig 1 on its own K-forest k-EDGECONNECT sketches of
// G_0 ⊇ G_1 ⊇ ..., built with the sparsifier's level hash and per-level
// seeds: the sequential scan for the first level whose witness is not
// provably saturated and has a min cut below K.
func fig1Reference(cfg BundleConfig, ups []stream.Update) (mincut.Result, error) {
	levels := cfg.sparsifierConfig().Filled().Levels
	mix := hashing.NewMixer(hashing.DeriveSeed(cfg.Seed, 0x51))
	ecs := make([]*agm.EdgeConnectSketch, levels)
	for i := range ecs {
		ecs[i] = agm.NewEdgeConnectSketch(cfg.N, cfg.K, hashing.DeriveSeed(cfg.Seed, 0x5100+uint64(i)))
	}
	for _, u := range ups {
		if u.U == u.V || u.Delta == 0 {
			continue
		}
		l := min(mix.Level(stream.EdgeIndex(u.U, u.V, cfg.N)), levels-1)
		for i := 0; i <= l; i++ {
			ecs[i].Update(u.U, u.V, u.Delta)
		}
	}
	for i, ec := range ecs {
		h, saturated := ec.WitnessInfo()
		if saturated {
			continue
		}
		if val, _ := h.StoerWagner(); val < int64(cfg.K) {
			return mincut.Result{Value: val << uint(i), Level: i, WitnessCut: val, WitnessEdges: h.NumEdges()}, nil
		}
	}
	return mincut.Result{}, mincut.ErrAllLevelsSaturated
}

// TestBundleMinCutIsFig1 pins Bundle.MinCut, read off the sparsifier's
// first K forests per level, to Fig 1 run on separate K-forest sketches on
// the same hashes, at decode workers 1, 2 and 4.
func TestBundleMinCutIsFig1(t *testing.T) {
	fixCfg, fixBase, fixToggles := publishFixture()
	cases := []struct {
		name string
		cfg  BundleConfig
		ups  []stream.Update
	}{
		{"fixture/base", fixCfg, fixBase},
		{"fixture/toggled", fixCfg, append(append([]stream.Update(nil), fixBase...), fixToggles...)},
		{"small/churn", testBundleConfig(), bundleStream(3).Updates},
		{"barbell", DefaultBundleConfig(64, 3), stream.Barbell(64, 4).Updates},
		{"planted", DefaultBundleConfig(64, 5), stream.PlantedPartition(64, 2, 0.8, 0.05, 5).Updates},
		{"sparse", DefaultBundleConfig(64, 7), stream.GNP(64, 8.0/63, 7).Updates},
	}
	for _, tc := range cases {
		want, wantErr := fig1Reference(tc.cfg, tc.ups)
		for _, workers := range []int{1, 2, 4} {
			b := NewBundle(tc.cfg)
			b.sp.SetDecodeWorkers(workers)
			b.UpdateBatch(tc.ups)
			got, err := b.MinCut()
			if got != want || err != wantErr {
				t.Fatalf("%s workers %d: %+v (err %v), Fig 1 reference %+v (err %v)", tc.name, workers, got, err, want, wantErr)
			}
		}
	}
}

// TestBundleMinCutExactBelowK: on graphs whose min cut is below K, level 0
// answers, and its witness keeps every cut below K, so the answer is the
// exact Stoer–Wagner value.
func TestBundleMinCutExactBelowK(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := DefaultBundleConfig(64, seed)
		sts := map[string]*stream.Stream{
			"barbell": stream.Barbell(64, 1+int(seed)%(cfg.K-1)),
			"planted": stream.PlantedPartition(64, 2, 0.8, 0.002, seed),
		}
		for name, st := range sts {
			exact, _ := graph.FromStream(st).StoerWagner()
			if exact >= int64(cfg.K) {
				t.Fatalf("%s seed %d: fixture min cut %d is not below K=%d", name, seed, exact, cfg.K)
			}
			b := NewBundle(cfg)
			b.UpdateBatch(st.Updates)
			got, err := b.MinCut()
			if err != nil || got.Level != 0 || got.Value != exact {
				t.Fatalf("%s seed %d: %+v (err %v), want level 0 and Stoer–Wagner %d", name, seed, got, err, exact)
			}
		}
	}
}

// TestBundleConfigK: K must be a forest count the sparsifier has.
func TestBundleConfigK(t *testing.T) {
	cfg := DefaultBundleConfig(64, 1)
	k := cfg.sparsifierConfig().Filled().KForests
	for _, bad := range []int{0, k + 1} {
		cfg.K = bad
		if cfg.check() == nil {
			t.Fatalf("K=%d accepted with %d forests", bad, k)
		}
		if _, err := NewServer(Config{Dir: t.TempDir(), Bundle: cfg}); err == nil {
			t.Fatalf("NewServer accepted K=%d", bad)
		}
	}
	cfg.K = k
	if err := cfg.check(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyPayloadRefused: a payload of the v2 layout (26 banks, the
// min-cut stack ahead of the sparsifier's), as a parent build served it
// and left it on disk, is refused with ErrBadEncoding by every decoder —
// and tenant open returns that error instead of sidelining the directory
// as corrupt.
func TestLegacyPayloadRefused(t *testing.T) {
	cfg := BundleConfig{N: 4, K: 1, Eps: 1.0, SpannerK: 2, Seed: 3}
	sealed, err := os.ReadFile("testdata/legacy26/payload.bin")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := DecodeSealed(sealed)
	if err != nil {
		t.Fatalf("the envelope did not change: %v", err)
	}
	for name, apply := range map[string]func(*Bundle) error{
		"MergeBytes":   func(b *Bundle) error { return b.MergeBytes(payload) },
		"InstallBanks": func(b *Bundle) error { return b.InstallBanks(payload) },
	} {
		if err := apply(NewBundle(cfg)); !errors.Is(err, wire.ErrBadEncoding) {
			t.Fatalf("%s of a v2 payload: %v, want ErrBadEncoding", name, err)
		}
	}

	dir := t.TempDir()
	tenantDir := filepath.Join(dir, "legacy")
	if err := os.MkdirAll(tenantDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"snapshot.bin", "wal.log"} {
		data, err := os.ReadFile(filepath.Join("testdata/legacy26/tenant", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tenantDir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewServer(Config{Dir: dir, Bundle: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	if _, err := s.Tenant("legacy", false); !errors.Is(err, wire.ErrBadEncoding) {
		t.Fatalf("open of a v2 tenant: %v, want ErrBadEncoding", err)
	}
	if _, err := os.Stat(filepath.Join(tenantDir, "snapshot.bin")); err != nil {
		t.Fatalf("the v2 tenant directory moved: %v", err)
	}
	if s.Metrics().CorruptSidelined.Load() != 0 {
		t.Fatal("a v2 tenant was sidelined as corrupt")
	}
}
