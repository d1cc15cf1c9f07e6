package graph

// Max-flow / min-cut entry points, all served by the reusable FlowSolver
// (Dinic on undirected graphs with int64 capacities; see flowsolver.go).
//
// Used for:
//   - min u-v cuts during Gomory-Hu construction (Fig 3, step 4);
//   - the k-connectivity classes (KClasses) that answer the
//     lambda_e(H_i) < k tests of SIMPLE-SPARSIFICATION (Fig 2, step 3),
//     where the flow can be capped at k to stop early.
//
// Callers issuing many queries should hold their own FlowSolver and use
// Reset/ResetFlow directly; these wrappers build a fresh solver per call.

const inf64 = int64(1) << 62

// MinCutST returns the weight of a minimum s-t cut and the source-side
// indicator of one such cut.
func (g *Graph) MinCutST(s, t int) (int64, []bool) {
	fs := NewFlowSolver()
	fs.Reset(g)
	val := fs.MaxFlowCapped(s, t, inf64)
	side := make([]bool, g.n)
	fs.MinCutSideInto(s, side)
	return val, side
}

// MinCutSTCapped returns min(k, min s-t cut weight). It stops the flow
// computation as soon as k units are routed, making the lambda_e < k tests
// of Fig 2 cheap: O(k * m) rather than a full max-flow.
func (g *Graph) MinCutSTCapped(s, t int, k int64) int64 {
	fs := NewFlowSolver()
	fs.Reset(g)
	return fs.MaxFlowCapped(s, t, k)
}

// EdgeConnectivity returns the global edge connectivity (min over all s-t
// cuts from vertex 0), or 0 for disconnected/trivial graphs. For weighted
// graphs prefer StoerWagner; this flow-based version is used as an
// independent cross-check in tests.
func (g *Graph) EdgeConnectivity() int64 {
	if g.n < 2 {
		return 0
	}
	fs := NewFlowSolver()
	fs.Reset(g)
	best := inf64
	for t := 1; t < g.n; t++ {
		fs.ResetFlow()
		if f := fs.MaxFlowCapped(0, t, best); f < best {
			best = f
		}
		if best == 0 {
			break
		}
	}
	return best
}
