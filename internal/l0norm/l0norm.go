// Package l0norm estimates the support size ||x||_0 = |{i : x_i != 0}| of a
// dynamically updated vector with a linear sketch.
//
// Section 4 needs this to turn the fraction gamma_H(G) (estimated by
// l0-samples of squash(X_G)) into an absolute count of pattern occurrences:
// the denominator "number of non-empty induced subgraphs of order k" is
// exactly the support size of squash(X_G).
//
// Construction (the standard rough-estimator + threshold recovery): per
// repetition, indices are subsampled at geometric levels; each level keeps a
// T-sparse recovery sketch. The smallest level whose sketch decodes has at
// most T survivors; scaling the survivor count by 2^level estimates the
// support with relative error ~ 1/sqrt(T). The final answer is the median
// over repetitions.
package l0norm

import (
	"sort"

	"graphsketch/internal/hashing"
	"graphsketch/internal/sparserec"
)

// DefaultThreshold is the per-level sparse recovery budget T.
const DefaultThreshold = 64

// DefaultReps is the default repetition count (median taken across them).
const DefaultReps = 5

// Estimator sketches support size under inserts and deletes.
type Estimator struct {
	universe  uint64
	levels    int
	threshold int
	reps      int
	seed      uint64
	mix       []hashing.Mixer
	recs      [][]*sparserec.Sketch // reps x levels
}

// New creates an estimator with default parameters.
func New(universe uint64, seed uint64) *Estimator {
	return NewWithParams(universe, seed, DefaultThreshold, DefaultReps)
}

// NewWithParams creates an estimator with an explicit threshold T and
// repetition count.
func NewWithParams(universe uint64, seed uint64, threshold, reps int) *Estimator {
	if threshold < 4 {
		threshold = 4
	}
	if reps < 1 {
		reps = 1
	}
	levels := 1
	for u := universe; u > 1; u >>= 1 {
		levels++
	}
	e := &Estimator{universe: universe, levels: levels, threshold: threshold, reps: reps, seed: seed}
	e.mix = make([]hashing.Mixer, reps)
	e.recs = make([][]*sparserec.Sketch, reps)
	for r := 0; r < reps; r++ {
		e.mix[r] = hashing.NewMixer(hashing.DeriveSeed(seed, 0x100+uint64(r)))
		row := make([]*sparserec.Sketch, levels)
		for j := range row {
			row[j] = sparserec.NewForUniverse(threshold, universe, hashing.DeriveSeed(seed, uint64(r)<<16|uint64(j)))
		}
		e.recs[r] = row
	}
	return e
}

// Update adds delta to coordinate index.
func (e *Estimator) Update(index uint64, delta int64) {
	if delta == 0 {
		return
	}
	for r := 0; r < e.reps; r++ {
		l := e.mix[r].Level(index)
		if l >= e.levels {
			l = e.levels - 1
		}
		for j := 0; j <= l; j++ {
			e.recs[r][j].Update(index, delta)
		}
	}
}

// Add merges another estimator (same construction parameters required).
func (e *Estimator) Add(other *Estimator) {
	if e.universe != other.universe || e.reps != other.reps ||
		e.levels != other.levels || e.threshold != other.threshold || e.seed != other.seed {
		panic("l0norm: merging incompatible estimators")
	}
	for r := 0; r < e.reps; r++ {
		for j := 0; j < e.levels; j++ {
			e.recs[r][j].Add(other.recs[r][j])
		}
	}
}

// Estimate returns the estimated support size. A zero vector estimates 0.
func (e *Estimator) Estimate() float64 {
	ests := make([]float64, 0, e.reps)
	for r := 0; r < e.reps; r++ {
		// Find the smallest level that decodes; survivors*2^level estimates L0.
		for j := 0; j < e.levels; j++ {
			items, ok := e.recs[r][j].Decode()
			if !ok {
				continue
			}
			ests = append(ests, float64(len(items))*float64(uint64(1)<<uint(j)))
			break
		}
	}
	if len(ests) == 0 {
		return 0
	}
	sort.Float64s(ests)
	mid := len(ests) / 2
	if len(ests)%2 == 1 {
		return ests[mid]
	}
	return (ests[mid-1] + ests[mid]) / 2
}

// AppendState appends the tagged cell state of every (rep, level) recovery
// sketch — headerless; the owning sketch's envelope carries the
// construction parameters.
func (e *Estimator) AppendState(buf []byte) []byte {
	for r := 0; r < e.reps; r++ {
		for j := 0; j < e.levels; j++ {
			buf = e.recs[r][j].AppendCells(buf)
		}
	}
	return buf
}

// DecodeState reads the state written by AppendState, replacing contents.
func (e *Estimator) DecodeState(data []byte) ([]byte, error) {
	var err error
	for r := 0; r < e.reps; r++ {
		for j := 0; j < e.levels; j++ {
			if data, err = e.recs[r][j].DecodeCells(data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// MergeState folds tagged state directly into the recovery sketches.
func (e *Estimator) MergeState(data []byte) ([]byte, error) {
	var err error
	for r := 0; r < e.reps; r++ {
		for j := 0; j < e.levels; j++ {
			if data, err = e.recs[r][j].MergeCells(data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Footprint reports space accounting summed over the recovery sketches.
func (e *Estimator) Footprint() sparserec.Footprint {
	var f sparserec.Footprint
	for r := range e.recs {
		for j := range e.recs[r] {
			f.Accum(e.recs[r][j].Footprint())
		}
	}
	return f
}

// Words returns the memory footprint in 64-bit words.
func (e *Estimator) Words() int {
	w := 0
	for r := range e.recs {
		for j := range e.recs[r] {
			w += e.recs[r][j].Words()
		}
	}
	return w
}
