package main

import (
	"fmt"

	"graphsketch"
	"graphsketch/internal/service"
)

// bundleConfig is the shape every server in the benchmark runs: serve's
// defaults, stated so the oracle, the child flags and the in-process replays
// cannot drift apart.
var bundleConfig = service.BundleConfig{N: benchN, K: 6, Eps: 1.0, SpannerK: 2, Seed: 1}

// answers is what the oracle bundle says at one stream position.
type answers struct {
	pos         int
	mincut      graphsketch.MinCutResult
	sparsEdges  int
	sparsWeight int64
	spanner     graphsketch.SpannerResult
}

// solve runs the schedule through an in-process service.Bundle — the same
// computation the server performs, with nothing between the caller and the
// sketch — and records the expected position of every op, the expected
// answer of every query, and the final compact payload. Every executor (the
// HTTP child, the in-process server, the shadow pipeline) is checked against
// these.
func (sc *schedule) solve() error {
	b := service.NewBundle(bundleConfig)
	pos := 0
	var cur *answers
	for i := range sc.ops {
		o := &sc.ops[i]
		switch {
		case o.kind == opIngest:
			b.UpdateBatch(o.ups)
			pos += len(o.ups)
		case o.kind.isQuery():
			if cur == nil || cur.pos != pos {
				mc, err := b.MinCut()
				if err != nil {
					return fmt.Errorf("oracle mincut at %d: %w", pos, err)
				}
				g, err := b.Sparsify()
				if err != nil {
					return fmt.Errorf("oracle sparsify at %d: %w", pos, err)
				}
				cur = &answers{pos: pos, mincut: mc, sparsEdges: g.NumEdges(), sparsWeight: g.TotalWeight(), spanner: b.Spanner()}
			}
			o.want = cur
		}
		o.pos = pos
	}
	var err error
	sc.final, err = b.MarshalBinaryCompact()
	return err
}

// The check functions compare one decoded response with the oracle; every
// query must also be served from an epoch at the durable position
// (staleness 0), because the schedule only queries after an epoch roll.

func checkMeta(m service.QueryMeta, want *answers) error {
	if m.Pos != want.pos || m.Acked != want.pos || m.Staleness != 0 {
		return fmt.Errorf("served pos=%d acked=%d staleness=%d, want position %d fresh", m.Pos, m.Acked, m.Staleness, want.pos)
	}
	return nil
}

func checkMinCut(r service.MinCutResponse, want *answers) error {
	if err := checkMeta(r.QueryMeta, want); err != nil {
		return err
	}
	w := want.mincut
	if r.Value != w.Value || r.Level != w.Level || r.WitnessCut != w.WitnessCut || r.WitnessEdges != w.WitnessEdges {
		return fmt.Errorf("mincut at %d = %+v, oracle %+v", want.pos, r, w)
	}
	return nil
}

func checkSparsify(r service.SparsifyResponse, want *answers) error {
	if err := checkMeta(r.QueryMeta, want); err != nil {
		return err
	}
	if r.Edges != want.sparsEdges || r.TotalWeight != want.sparsWeight {
		return fmt.Errorf("sparsify at %d = %d edges weight %d, oracle %d weight %d", want.pos, r.Edges, r.TotalWeight, want.sparsEdges, want.sparsWeight)
	}
	return nil
}

func checkSpanner(r service.SpannerResponse, want *answers) error {
	if err := checkMeta(r.QueryMeta, want); err != nil {
		return err
	}
	w := want.spanner
	if r.Edges != w.Spanner.NumEdges() || r.StretchBound != w.StretchBound || r.Passes != w.Passes {
		return fmt.Errorf("spanner at %d = %d edges stretch %v passes %d, oracle %d/%v/%d", want.pos, r.Edges, r.StretchBound, r.Passes, w.Spanner.NumEdges(), w.StretchBound, w.Passes)
	}
	return nil
}

func checkSpannerEdge(r service.SpannerEdgeResponse, o *op) error {
	if err := checkMeta(r.QueryMeta, o.want); err != nil {
		return err
	}
	w := o.want.spanner
	if r.U != o.u || r.V != o.v || r.InSpanner != w.Spanner.HasEdge(o.u, o.v) || r.Edges != w.Spanner.NumEdges() {
		return fmt.Errorf("spanner-edge(%d,%d) at %d = in:%v edges:%d, oracle in:%v edges:%d", o.u, o.v, o.want.pos, r.InSpanner, r.Edges, w.Spanner.HasEdge(o.u, o.v), w.Spanner.NumEdges())
	}
	return nil
}
