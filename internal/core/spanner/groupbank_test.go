package spanner

import (
	"testing"

	"graphsketch/internal/sketchcore"
)

// xorshift advances a test PRNG state.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// collectEqual fails unless members [0, members) of got and want collect
// the same items.
func collectEqual(t *testing.T, name string, got, want *GroupBank, members int) {
	t.Helper()
	var g, w []uint64
	for m := 0; m < members; m++ {
		g = got.CollectInto(m, g[:0])
		w = want.CollectInto(m, w[:0])
		if len(g) != len(w) {
			t.Fatalf("%s member %d: %d items vs %d", name, m, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s member %d item %d: %d vs %d", name, m, i, g[i], w[i])
			}
		}
	}
}

// ownedPass runs one pass's slot-owned sweep over the bank the way the
// builders do: members [0, len(seeds)) split into `ranges` contiguous
// ranges, each zeroing (the last through the end of the bank) and
// reseeding its own members on its own goroutine and applying only the
// updates that land on them, recording occupancy in its own bitmap; Remark
// unions the bitmaps after the join.
func ownedPass(b *GroupBank, seeds []uint64, ranges int, ups [][4]uint64) {
	live := len(seeds)
	marks := make([][]uint64, ranges)
	b.cells.Own()
	sketchcore.ForkJoin(ranges, ranges, func(r int) {
		lo, hi := r*live/ranges, (r+1)*live/ranges
		end := hi
		if r == ranges-1 {
			end = b.members
		}
		b.resetMembers(lo, end)
		b.seedMembers(seeds, lo, hi)
		marks[r] = make([]uint64, b.cells.MarkWords())
		for _, u := range ups {
			if m := int(u[0]); m >= lo && m < hi {
				b.updateMarked(marks[r], m, u[1], u[2], int64(u[3]))
			}
		}
	})
	b.cells.Remark(marks)
}

// TestGroupBankMatchesGroupSamplers: bank member m seeded with s must
// collect exactly what NewGroupSampler(universe, budget, s) collects after
// the same updates — the banked/standalone parity the construction relies
// on — and a bank zeroed and reseeded by a later pass must match a freshly
// constructed one.
func TestGroupBankMatchesGroupSamplers(t *testing.T) {
	const members, universe, budget = 9, 1 << 14, 6
	seeds := make([]uint64, members)
	for i := range seeds {
		seeds[i] = uint64(1000 + i*i)
	}
	bank := NewGroupBank(members, universe, budget, seeds)
	singles := make([]*GroupSampler, members)
	for i := range singles {
		singles[i] = NewGroupSampler(universe, budget, seeds[i])
	}
	x := uint64(3)
	for i := 0; i < 2000; i++ {
		x = xorshift(x)
		m, g, item, d := int(x%members), (x>>4)%32, (x>>16)%universe, int64(x%5)-2
		bank.Update(m, g, item, d)
		singles[m].Update(g, item, d)
	}
	var got, want []uint64
	for m := 0; m < members; m++ {
		got = bank.CollectInto(m, got[:0])
		want = singles[m].CollectInto(want[:0])
		if len(got) != len(want) {
			t.Fatalf("member %d: %d items vs %d", m, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("member %d item %d: %d vs %d", m, i, got[i], want[i])
			}
		}
	}

	// Zeroing and reseeding every member must reproduce a freshly
	// constructed bank.
	seeds2 := make([]uint64, members)
	for i := range seeds2 {
		seeds2[i] = uint64(7777 + i*3)
	}
	bank.resetMembers(0, members)
	bank.seedMembers(seeds2, 0, members)
	fresh := NewGroupBank(members, universe, budget, seeds2)
	for i := 0; i < 500; i++ {
		x = xorshift(x)
		m, g, item := int(x%members), (x>>4)%16, (x>>16)%universe
		bank.Update(m, g, item, 1)
		fresh.Update(m, g, item, 1)
	}
	collectEqual(t, "reseeded", bank, fresh, members)
}

// TestGroupBankShardMerge: a pass whose members are split into slot-owned
// ranges (shards), each written by its own goroutine and merged back by
// unioning their occupancy bitmaps, must leave the bank as one sequential
// pass does — including on a bank that carries an earlier pass's state and
// seeds, where only a live prefix of members is reseeded and the stale tail
// must read empty.
func TestGroupBankShardMerge(t *testing.T) {
	const members, universe, budget = 5, 1 << 10, 4
	seeds := []uint64{11, 22, 33, 44, 55}
	old := []uint64{91, 92, 93, 94, 95}
	x := uint64(21)
	ups := make([][4]uint64, 800)
	for i := range ups {
		x = xorshift(x)
		ups[i] = [4]uint64{x % members, (x >> 4) % 8, (x >> 16) % universe, uint64(int64(x%3) - 1)}
	}
	for _, live := range []int{members, 3} {
		whole := NewGroupBank(live, universe, budget, seeds[:live])
		for _, u := range ups {
			if int(u[0]) < live {
				whole.Update(int(u[0]), u[1], u[2], int64(u[3]))
			}
		}
		for _, ranges := range []int{1, 2, 3} {
			bank := NewGroupBank(members, universe, budget, old)
			for _, u := range ups { // the earlier pass's state
				bank.Update(int(u[0]), u[2]%8, u[1], 1)
			}
			ownedPass(bank, seeds[:live], ranges, ups)
			collectEqual(t, "sharded pass", bank, whole, live)
			var tail []uint64
			for m := live; m < members; m++ {
				if tail = bank.CollectInto(m, tail[:0]); len(tail) != 0 {
					t.Fatalf("live=%d ranges=%d: stale member %d collected %d items", live, ranges, m, len(tail))
				}
			}
		}
	}
}
