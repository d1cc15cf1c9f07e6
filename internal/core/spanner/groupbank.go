package spanner

import (
	"graphsketch/internal/hashing"
	"graphsketch/internal/sketchcore"
)

// GroupBank is the arena-banked form of GroupSampler: `members` logical
// group samplers — one per live vertex (BASWANA-SEN) or live supernode
// (RECURSECONNECT) — stored in a single per-slot-seeded sketchcore.Arena
// instead of a map or slice of individually allocated samplers. Member m's
// (rep, bucket) grid occupies the contiguous arena slot range
// [m*grid, (m+1)*grid), so a construction pass costs one arena allocation
// (reused across passes: each slot-owned range zeroes and reseeds its own
// members) rather than one sampler allocation per live vertex per pass.
//
// Bit-compatibility: member m seeded with s holds exactly the cells of
// NewGroupSampler(universe, budget, s) after the same updates, and
// CollectInto scans the same (rep, bucket) order, so banked construction
// reproduces the per-vertex samplers' outputs bit for bit (pinned by the
// groupbank parity test and the spanner new-vs-baseline property test).
type GroupBank struct {
	universe uint64
	members  int
	budget   int
	reps     int             // group-scatter repetitions per member
	buckets  int             // buckets per repetition
	grid     int             // reps*buckets arena slots per member
	hash     []hashing.Mixer // group-to-bucket hashes, member*reps + r
	slotSeed []uint64        // per-slot seed staging, members*grid
	cells    *sketchcore.Arena
}

// NewGroupBank creates a bank of `members` group samplers for items in
// [0, universe), each aiming to surface up to `budget` distinct groups,
// seeded per member from memberSeeds (len == members).
func NewGroupBank(members int, universe uint64, budget int, memberSeeds []uint64) *GroupBank {
	if members < 1 {
		panic("spanner: group bank needs at least one member")
	}
	if len(memberSeeds) != members {
		panic("spanner: len(memberSeeds) must equal members")
	}
	b := &GroupBank{
		universe: universe,
		members:  members,
		budget:   budget,
		reps:     groupSamplerReps,
		buckets:  groupBuckets(budget),
	}
	b.grid = b.reps * b.buckets
	b.hash = make([]hashing.Mixer, members*b.reps)
	b.slotSeed = make([]uint64, members*b.grid)
	b.stageSeeds(memberSeeds, 0, members)
	b.cells = sketchcore.New(sketchcore.Config{
		Slots:     members * b.grid,
		Universe:  universe,
		Reps:      bucketSamplerReps,
		SlotSeeds: b.slotSeed,
		// Bank slots each see a scattered handful of one member's edges:
		// direct fingerprint terms beat per-slot table builds.
		DeferTables: true,
	})
	return b
}

// stageSeeds fills members [lo, hi)'s group hashes and per-slot seed
// staging from memberSeeds[lo:hi]. It writes only those members' entries.
func (b *GroupBank) stageSeeds(memberSeeds []uint64, lo, hi int) {
	for m := lo; m < hi; m++ {
		s := memberSeeds[m]
		base := m * b.grid
		for r := 0; r < b.reps; r++ {
			b.hash[m*b.reps+r] = hashing.NewMixer(groupHashSeed(s, r))
			for k := 0; k < b.buckets; k++ {
				b.slotSeed[base+r*b.buckets+k] = groupSlotSeed(s, r, k)
			}
		}
	}
}

// resetMembers zeroes members [lo, hi)'s occupied cells for the slot-owned
// sweep (see sketchcore.Arena.ResetSlots).
func (b *GroupBank) resetMembers(lo, hi int) {
	b.cells.ResetSlots(lo*b.grid, hi*b.grid)
}

// seedMembers re-derives members [lo, hi)'s hashes from memberSeeds[lo:hi]
// and leaves every cell as it is, for the slot-owned sweep, whose
// goroutines each zero (resetMembers) and reseed their own member range.
// Members past the ranges a pass reseeds keep stale hash state over zeroed
// cells and must not be updated or collected until a later reseed covers
// them.
func (b *GroupBank) seedMembers(memberSeeds []uint64, lo, hi int) {
	b.stageSeeds(memberSeeds, lo, hi)
	b.cells.SeedSlots(lo*b.grid, b.slotSeed[lo*b.grid:hi*b.grid])
}

// Members returns the number of logical samplers in the bank.
func (b *GroupBank) Members() int { return b.members }

// Update adds delta to item, which belongs to group, in member's sampler.
func (b *GroupBank) Update(member int, group, item uint64, delta int64) {
	if delta == 0 {
		return
	}
	base := member * b.grid
	h := b.hash[member*b.reps : member*b.reps+b.reps]
	for r := 0; r < b.reps; r++ {
		k := int(h[r].Bounded(group, uint64(b.buckets)))
		b.cells.Update(base+r*b.buckets+k, item, delta)
	}
}

// updateMarked is Update for the slot-owned sweep: the arena slots written
// are recorded in marks (see sketchcore.Arena.UpdateMarked).
func (b *GroupBank) updateMarked(marks []uint64, member int, group, item uint64, delta int64) {
	if delta == 0 {
		return
	}
	base := member * b.grid
	h := b.hash[member*b.reps : member*b.reps+b.reps]
	for r := 0; r < b.reps; r++ {
		k := int(h[r].Bounded(group, uint64(b.buckets)))
		b.cells.UpdateMarked(marks, base+r*b.buckets+k, item, delta)
	}
}

// CollectInto appends one sampled item per non-empty (rep, bucket) cell of
// member, in the same grid order as GroupSampler.CollectInto. The caller
// deduplicates by group; items may repeat across repetitions.
func (b *GroupBank) CollectInto(member int, out []uint64) []uint64 {
	base := member * b.grid
	for slot := base; slot < base+b.grid; slot++ {
		if idx, _, ok := b.cells.Sample(slot); ok {
			out = append(out, idx)
		}
	}
	return out
}

// Footprint reports the bank grid's space accounting.
func (b *GroupBank) Footprint() sketchcore.Footprint {
	return b.cells.Footprint()
}
