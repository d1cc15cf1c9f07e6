package graph

// Gomory-Hu tree with true cut partitions (contraction form).
//
// Fig 3 (SPARSIFICATION) requires, for each tree edge, the *cut induced by
// removing that edge* to be an actual minimum cut of the corresponding
// vertex pair — a property Gusfield's flow-equivalent shortcut does not
// give. We therefore implement the classic contraction algorithm
// (Gomory-Hu 1961): maintain a tree of supernodes; repeatedly split a
// supernode by a min cut computed in the graph with all other subtrees
// contracted; n-1 max-flows total.

// GHTree is a Gomory-Hu tree on the same vertex set as its source graph.
type GHTree struct {
	n      int
	Parent []int   // Parent[v] = tree parent (Parent[root] = -1)
	Weight []int64 // Weight[v] = weight of edge (v, Parent[v])
	depth  []int   // lazy cache for path queries; nil until first use
}

// ghDenseLimit caps the dense-contraction path's n*n int64 scratch at 2 MB.
const ghDenseLimit = 512

// ghSuper is a supernode of the in-progress tree.
type ghSuper struct {
	verts []int         // original vertices inside
	nbrs  map[int]int64 // tree edges: neighbor supernode id -> weight
}

// GomoryHu builds the Gomory-Hu tree of g. g should be connected; for
// disconnected graphs the tree is still built but contains weight-0 edges.
func (g *Graph) GomoryHu() *GHTree {
	n := g.n
	if n == 0 {
		return &GHTree{n: 0}
	}
	supers := map[int]*ghSuper{}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	supers[0] = &ghSuper{verts: all, nbrs: map[int]int64{}}
	nextID := 1

	// Per-split machinery, hoisted out of the loop: the source edge list is
	// immutable, and the contraction buffers, flow solver, and side buffer
	// are recycled split after split (n-1 splits total). Contraction runs
	// through a dense weight matrix when it fits (post-processing graphs are
	// small), emitting edges in the same canonical (U, V) ascending order
	// the map-backed Graph's Edges() produced — no per-split map or sort;
	// larger graphs fall back to the map path.
	allEdges := g.Edges()
	solver := NewFlowSolver()
	sideBuf := make([]bool, n)
	label := make([]int, n)
	dense := n <= ghDenseLimit
	var mat []int64
	var edgeBuf []Edge
	var contracted *Graph
	if dense {
		mat = make([]int64, n*n)
	} else {
		contracted = New(0)
	}

	// Queue of supernode ids that may still need splitting.
	queue := []int{0}
	for len(queue) > 0 {
		xid := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		x, ok := supers[xid]
		if !ok || len(x.verts) < 2 {
			continue
		}
		u, v := x.verts[0], x.verts[1]

		// Contract: every component of (tree - x) becomes one vertex.
		// Find components by BFS over supernode tree from each neighbor.
		compOf := map[int]int{} // supernode id -> component id
		var comps [][]int       // component id -> supernode ids
		for nb := range x.nbrs {
			if _, seen := compOf[nb]; seen {
				continue
			}
			cid := len(comps)
			var members []int
			stack := []int{nb}
			compOf[nb] = cid
			for len(stack) > 0 {
				s := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				members = append(members, s)
				for nn := range supers[s].nbrs {
					if nn == xid {
						continue
					}
					if _, seen := compOf[nn]; !seen {
						compOf[nn] = cid
						stack = append(stack, nn)
					}
				}
			}
			comps = append(comps, members)
		}

		// Contracted graph: x's vertices individually, then one vertex per
		// component.
		for i := range label {
			label[i] = -1
		}
		for i, vert := range x.verts {
			label[vert] = i
		}
		base := len(x.verts)
		for cid, members := range comps {
			for _, sid := range members {
				for _, vert := range supers[sid].verts {
					label[vert] = base + cid
				}
			}
		}
		cn := base + len(comps)
		if dense {
			edgeBuf = edgeBuf[:0]
			for _, e := range allEdges {
				lu, lv := label[e.U], label[e.V]
				if lu != lv && lu != -1 && lv != -1 {
					if lu > lv {
						lu, lv = lv, lu
					}
					mat[lu*cn+lv] += e.W
				}
			}
			for a := 0; a < cn; a++ {
				row := mat[a*cn : (a+1)*cn]
				for b := a + 1; b < cn; b++ {
					if w := row[b]; w != 0 {
						edgeBuf = append(edgeBuf, Edge{U: a, V: b, W: w})
						row[b] = 0
					}
				}
			}
			solver.ResetEdges(cn, edgeBuf)
		} else {
			contracted.Reset(cn)
			for _, e := range allEdges {
				lu, lv := label[e.U], label[e.V]
				if lu != lv && lu != -1 && lv != -1 {
					contracted.AddEdge(lu, lv, e.W)
				}
			}
			solver.Reset(contracted)
		}
		cutVal := solver.MaxFlowCapped(label[u], label[v], inf64)
		side := sideBuf[:cn]
		solver.MinCutSideInto(label[u], side)

		// Split x into xu (u's side) and xv.
		var vu, vv []int
		for _, vert := range x.verts {
			if side[label[vert]] {
				vu = append(vu, vert)
			} else {
				vv = append(vv, vert)
			}
		}
		uid, vid := xid, nextID
		nextID++
		xu := &ghSuper{verts: vu, nbrs: map[int]int64{}}
		xv := &ghSuper{verts: vv, nbrs: map[int]int64{}}
		// Reattach old neighbors by which side their component landed on.
		for nb, w := range x.nbrs {
			cid := compOf[nb]
			target := xu
			targetID := uid
			if !side[base+cid] {
				target = xv
				targetID = vid
			}
			target.nbrs[nb] = w
			delete(supers[nb].nbrs, xid)
			supers[nb].nbrs[targetID] = w
		}
		xu.nbrs[vid] = cutVal
		xv.nbrs[uid] = cutVal
		supers[uid] = xu
		supers[vid] = xv
		if len(xu.verts) >= 2 {
			queue = append(queue, uid)
		}
		if len(xv.verts) >= 2 {
			queue = append(queue, vid)
		}
	}

	// All supernodes are singletons: root the supernode tree at vertex 0's
	// supernode and emit parent pointers over original vertices.
	t := &GHTree{n: n, Parent: make([]int, n), Weight: make([]int64, n)}
	vertOf := map[int]int{} // supernode id -> its single vertex
	for sid, s := range supers {
		vertOf[sid] = s.verts[0]
	}
	// BFS over supernode tree.
	var rootSid int
	for sid, s := range supers {
		if s.verts[0] == 0 {
			rootSid = sid
			break
		}
	}
	visited := map[int]bool{rootSid: true}
	t.Parent[0] = -1
	stack := []int{rootSid}
	for len(stack) > 0 {
		sid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for nb, w := range supers[sid].nbrs {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			t.Parent[vertOf[nb]] = vertOf[sid]
			t.Weight[vertOf[nb]] = w
			stack = append(stack, nb)
		}
	}
	return t
}

// MinCutEdgeBetween returns the vertex whose parent-edge is a minimum-
// weight edge on the u-v tree path. Fig 3 step 4d assigns each graph edge
// to this tree edge. Returns -1 iff u == v.
func (t *GHTree) MinCutEdgeBetween(u, v int) int {
	min := int64(1) << 62
	argmin := -1
	du := t.depths()
	uu, vv := u, v
	for uu != vv {
		if du[uu] >= du[vv] {
			if t.Weight[uu] < min {
				min = t.Weight[uu]
				argmin = uu
			}
			uu = t.Parent[uu]
		} else {
			if t.Weight[vv] < min {
				min = t.Weight[vv]
				argmin = vv
			}
			vv = t.Parent[vv]
		}
	}
	return argmin
}

// CutSide returns the indicator of the vertex set on v's side of the tree
// edge (v, Parent[v]) — the cut that tree edge induces.
func (t *GHTree) CutSide(v int) []bool {
	children := make([][]int, t.n)
	for x := 0; x < t.n; x++ {
		if pa := t.Parent[x]; pa != -1 {
			children[pa] = append(children[pa], x)
		}
	}
	side := make([]bool, t.n)
	stack := []int{v}
	side[v] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range children[u] {
			if !side[c] {
				side[c] = true
				stack = append(stack, c)
			}
		}
	}
	return side
}

// TreeEdges returns the n-1 tree edges as (child, parent, weight).
func (t *GHTree) TreeEdges() []Edge {
	out := make([]Edge, 0, t.n-1)
	for v := 0; v < t.n; v++ {
		if t.Parent[v] != -1 {
			out = append(out, Edge{U: v, V: t.Parent[v], W: t.Weight[v]})
		}
	}
	return out
}

// depths returns (and caches) every vertex's tree depth. The cache makes
// repeated path queries — one per graph edge in Fig 3 step 4d — O(path)
// instead of O(n) each. Callers must not mutate Parent after the first
// query.
func (t *GHTree) depths() []int {
	if t.depth != nil {
		return t.depth
	}
	depth := make([]int, t.n)
	computed := make([]bool, t.n)
	var rec func(v int) int
	rec = func(v int) int {
		if computed[v] {
			return depth[v]
		}
		computed[v] = true
		if t.Parent[v] == -1 {
			depth[v] = 0
		} else {
			depth[v] = rec(t.Parent[v]) + 1
		}
		return depth[v]
	}
	for v := 0; v < t.n; v++ {
		rec(v)
	}
	t.depth = depth
	return depth
}
