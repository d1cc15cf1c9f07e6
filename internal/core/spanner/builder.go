package spanner

import (
	"sync"
	"sync/atomic"

	"graphsketch/internal/sketchcore"
)

// decodeScratch is the reusable fan-out under the spanner decode steps
// (retirement in BASWANA-SEN, per-supernode collection in RECURSECONNECT):
// n independent items are claimed off an atomic counter by up to `workers`
// goroutines, each recording either a join sample or a collected item list
// for its item. Sampling is read-only on the arenas, collected lists land
// in per-worker append buffers, and the caller applies results sequentially
// in item order — so the construction is bit-identical for every worker
// count, mirroring PR 3's level-parallel mincut decode.
type decodeScratch struct {
	joinIdx []uint64
	joinOK  []bool
	items   [][]uint64
	bufs    [][]uint64 // per-worker collect buffers, reused across passes
}

// decodeWorker is one worker's handle into the scratch.
type decodeWorker struct {
	d  *decodeScratch
	id int
}

// join records a successful join sample for item i.
func (w *decodeWorker) join(i int, idx uint64) {
	w.d.joinOK[i] = true
	w.d.joinIdx[i] = idx
}

// collect records item i's collected list, filled by fill appending into
// the worker's buffer. Earlier recorded slices stay valid across buffer
// growth (they keep the old backing array alive until the next pass).
func (w *decodeWorker) collect(i int, fill func([]uint64) []uint64) {
	buf := w.d.bufs[w.id]
	start := len(buf)
	buf = fill(buf)
	w.d.bufs[w.id] = buf
	w.d.items[i] = buf[start:len(buf):len(buf)]
}

// run fans fn over items [0, n) with the given worker setting (0 =
// GOMAXPROCS).
func (d *decodeScratch) run(n, workers int, fn func(w *decodeWorker, i int)) {
	if cap(d.joinIdx) < n {
		d.joinIdx = make([]uint64, n)
		d.joinOK = make([]bool, n)
		d.items = make([][]uint64, n)
	}
	d.joinIdx = d.joinIdx[:n]
	d.joinOK = d.joinOK[:n]
	d.items = d.items[:n]
	for i := range d.joinOK {
		d.joinOK[i] = false
		d.items[i] = nil
	}
	workers = max(min(sketchcore.Workers(workers), n), 1)
	for len(d.bufs) < workers {
		d.bufs = append(d.bufs, nil)
	}
	for i := 0; i < workers; i++ {
		d.bufs[i] = d.bufs[i][:0]
	}
	if workers == 1 {
		w := &decodeWorker{d: d}
		for i := 0; i < n; i++ {
			fn(w, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := &decodeWorker{d: d, id: id}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(id)
	}
	wg.Wait()
}

// joined reports whether item i recorded a join sample, and its index.
func (d *decodeScratch) joined(i int) (bool, uint64) {
	return d.joinOK[i], d.joinIdx[i]
}

// ownedSweep is the slot-owned pass sweep under both builders. Live members
// [0, live) split into one contiguous range per ingest worker, and each
// range runs on sketchcore.ForkJoin: it zeroes and reseeds its own members,
// scans the whole pass plan, and applies only the endpoint updates that land
// on its members. Every cell thus has one writer and receives the updates a
// one-goroutine sweep gives it, in plan order, so the state is bit-identical
// for every worker count, and no shard bank is cloned or merged. Two ranges'
// slots may share an occupancy word, so each range records its writes in its
// own bitmap per arena, and the union becomes the occupancy after the join
// (sketchcore.Arena.Remark).
type ownedSweep struct {
	marks  [][]uint64 // range r's bitmap for arena i at r*len(arenas)+i
	gather [][]uint64 // one arena's bitmaps, for Remark
}

// run sweeps with the given ingest worker setting (0 = GOMAXPROCS), giving
// the arenas their own cells before the fork. fn(lo, hi, marks) sweeps
// members [lo, hi), recording into marks[i] what it writes to arenas[i];
// it must ResetSlots its members first, and the last range (hi == live)
// every slot past them too.
func (s *ownedSweep) run(live, workers int, arenas []*sketchcore.Arena, fn func(lo, hi int, marks [][]uint64)) {
	ranges := min(sketchcore.Workers(workers), live)
	na := len(arenas)
	for _, a := range arenas {
		a.Own()
	}
	for len(s.marks) < ranges*na {
		s.marks = append(s.marks, nil)
	}
	for j, m := range s.marks[:ranges*na] {
		if words := arenas[j%na].MarkWords(); len(m) != words {
			s.marks[j] = make([]uint64, words)
		}
	}
	sketchcore.ForkJoin(ranges, 0, func(r int) {
		fn(r*live/ranges, (r+1)*live/ranges, s.marks[r*na:(r+1)*na])
	})
	for i, a := range arenas {
		s.gather = s.gather[:0]
		for r := 0; r < ranges; r++ {
			s.gather = append(s.gather, s.marks[r*na+i])
		}
		a.Remark(s.gather)
	}
}
