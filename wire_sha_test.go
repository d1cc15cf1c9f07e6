package graphsketch

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"graphsketch/internal/core/spanner"
	"graphsketch/internal/sparserec"
)

// TestCompactWireSHA256 pins the compact encoding byte for byte: the SHA-256
// of MarshalBinaryCompact for one fixed fixture of every facade sketch type
// and of the two internal sketches that ship on their own. Any change to a
// header, a tag byte or the run-length cell codec fails here.
func TestCompactWireSHA256(t *testing.T) {
	st := GNP(16, 0.4, 3).WithChurn(40, 5)
	wst := WeightedGNP(16, 0.4, 8, 4)

	conn := NewConnectivitySketch(16, 1)
	conn.Ingest(st)
	mst := NewMSTSketch(16, 8, 2)
	mst.Ingest(wst)
	mc := NewMinCutSketchK(16, 4, 3)
	mc.Ingest(st)
	ss := NewSimpleSparsifier(16, 0.9, 4)
	ss.Ingest(st)
	sp := NewSparsifier(16, 0.9, 5)
	sp.Ingest(st)
	ws := NewWeightedSparsifier(16, 0.9, 8, 6)
	ws.Ingest(wst)
	sg := NewSubgraphSketch(12, 3, 16, 7)
	sg.Ingest(GNP(12, 0.5, 8))
	gs := spanner.NewGroupSampler(1<<12, 5, 0x77)
	rec := sparserec.New(8, 9)
	for i := uint64(0); i < 200; i++ {
		x := i*0x9e3779b97f4a7c15 + 1
		gs.Update(x%16, (x>>8)%(1<<12), int64(x%5)-2)
		rec.Update(x%1000, int64(i%3)+1)
	}

	for _, tc := range []struct {
		name    string
		marshal func() ([]byte, error)
		want    string
	}{
		{"connectivity", conn.MarshalBinaryCompact, "66bd608000615e960dcf62adc2ec3e3215bf49e20678827e6dad7b53b904a341"},
		{"mst", mst.MarshalBinaryCompact, "fefd5c45092e7533f190b0197e99ed609ecb848096c53918044a19415832630b"},
		{"mincut", mc.MarshalBinaryCompact, "e51ef886d8f292accd903665600e03aa1710b676cac858e90c1a8a508508b347"},
		{"simple-sparsifier", ss.MarshalBinaryCompact, "3bf99a1c80cbc929bcf161259781b3bd37bc5a66525566ef1dfbf3d3abb821e1"},
		{"sparsifier", sp.MarshalBinaryCompact, "1fe725ad676b8542f29897d19f947997009ce3a463713452e06b9c86135278c1"},
		{"weighted-sparsifier", ws.MarshalBinaryCompact, "8c5a01f42baee7d3c8f07373b2f740903afa2de39cfbd92e1feffa4e747c17df"},
		{"subgraph", sg.MarshalBinaryCompact, "b53d67dafef03ffb95280b694369ccc18befb939b04bced665b43d9469836564"},
		{"group-sampler", gs.MarshalBinaryCompact, "2fb35bf2eae220306e07ac81dad94cac53f15d0b1a045195a65e341f8d2986f5"},
		{"sparserec", rec.MarshalBinaryCompact, "344c6cb026de81c06a8ee74cf0abf2212fcaaafe72e0dbe2da12e08ee5ea9f86"},
	} {
		b, err := tc.marshal()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: compact bytes moved: sha256 %s (%d bytes), want %s", tc.name, got, len(b), tc.want)
		}
	}
}
