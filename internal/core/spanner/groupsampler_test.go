package spanner

import (
	"sort"
	"testing"
)

// TestGroupSamplerMerge: per-site group samplers must merge (pairwise and
// k-way) into the sampler of the union stream — the distributed form of a
// spanner pass — with bit-identical collected samples.
func TestGroupSamplerMerge(t *testing.T) {
	const universe = 1 << 12
	mk := func() *GroupSampler { return NewGroupSampler(universe, 8, 31) }

	type upd struct {
		group, item uint64
		delta       int64
	}
	var ups []upd
	x := uint64(5)
	for i := 0; i < 400; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		ups = append(ups, upd{group: x % 16, item: (x >> 8) % universe, delta: int64(x%5) - 2})
	}

	whole := mk()
	sites := []*GroupSampler{mk(), mk(), mk(), mk()}
	for i, u := range ups {
		whole.Update(u.group, u.item, u.delta)
		sites[i%len(sites)].Update(u.group, u.item, u.delta)
	}

	pair := mk()
	for _, s := range sites {
		pair.Add(s)
	}
	many := mk()
	many.MergeMany(sites)

	collect := func(gs *GroupSampler) []uint64 {
		out := gs.Collect()
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	want := collect(whole)
	for name, gs := range map[string]*GroupSampler{"pairwise": pair, "k-way": many} {
		got := collect(gs)
		if len(got) != len(want) {
			t.Fatalf("%s: %d samples vs %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sample %d differs", name, i)
			}
		}
	}

	fp := whole.Footprint()
	if fp.NonzeroCells <= 0 || fp.WireCompactBytes > 24*fp.TotalCells {
		t.Fatalf("implausible footprint %+v", fp)
	}
}
