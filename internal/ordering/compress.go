package ordering

import (
	"sort"

	"mlpart/internal/graph"
)

// Compress detects groups of indistinguishable vertices — vertices with
// identical closed neighborhoods N(v) ∪ {v} — and collapses each group
// into one supervertex whose weight is the group size. Matrices from
// finite-element models with several degrees of freedom per node compress
// by that factor, which shrinks every later phase; this is the analog of
// METIS's compressed-graph preprocessing.
//
// It returns the compressed graph, cmap (original vertex -> supervertex)
// and members (supervertex -> its original vertices, in ascending order).
// When nothing compresses, the original graph is returned with identity
// maps and ok == false.
func Compress(g *graph.Graph) (cg *graph.Graph, cmap []int, members [][]int, ok bool) {
	n := g.NumVertices()
	// Hash the closed neighborhood of each vertex.
	type bucketKey struct {
		hash uint64
		deg  int
	}
	buckets := make(map[bucketKey][]int, n)
	keys := make([]bucketKey, n)
	for v := 0; v < n; v++ {
		var h uint64 = 1469598103934665603
		mix := func(x int) {
			h ^= uint64(x) + 0x9E3779B97F4A7C15
			h *= 1099511628211
		}
		// Closed neighborhood, order-independent mixing: sum and xor of
		// element hashes keeps the hash independent of adjacency order.
		var sum, xor uint64
		add := func(x int) {
			e := (uint64(x) + 0x9E3779B97F4A7C15) * 1099511628211
			sum += e
			xor ^= e
		}
		add(v)
		for _, u := range g.Neighbors(v) {
			add(u)
		}
		mix(int(sum))
		mix(int(xor))
		keys[v] = bucketKey{h, g.Degree(v) + 1}
		buckets[keys[v]] = append(buckets[keys[v]], v)
	}

	cmap = make([]int, n)
	for i := range cmap {
		cmap[i] = -1
	}
	// Verify candidate groups exactly and assign group representatives.
	closed := func(v int) []int {
		s := append([]int{v}, g.Neighbors(v)...)
		sort.Ints(s)
		return s
	}
	equalSlices := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	groupOf := make([]int, 0, n) // supervertex -> representative
	// Visit each bucket once, at its smallest vertex (candidate lists are
	// ascending), so supervertices are numbered the same on every run.
	for r := 0; r < n; r++ {
		cand := buckets[keys[r]]
		if len(cand) == 1 || cand[0] != r {
			continue
		}
		// Partition the candidate list into exact-equality groups.
		used := make([]bool, len(cand))
		for i, v := range cand {
			if used[i] || cmap[v] >= 0 {
				continue
			}
			cv := closed(v)
			for j := i + 1; j < len(cand); j++ {
				if used[j] {
					continue
				}
				if equalSlices(cv, closed(cand[j])) {
					if cmap[v] < 0 {
						cmap[v] = len(groupOf)
						groupOf = append(groupOf, v)
					}
					cmap[cand[j]] = cmap[v]
					used[j] = true
				}
			}
		}
	}
	if len(groupOf) == 0 {
		// Nothing compressed.
		cmap = make([]int, n)
		members = make([][]int, n)
		for v := 0; v < n; v++ {
			cmap[v] = v
			members[v] = []int{v}
		}
		return g, cmap, members, false
	}
	// Assign remaining singletons.
	cn := len(groupOf)
	for v := 0; v < n; v++ {
		if cmap[v] < 0 {
			cmap[v] = cn
			groupOf = append(groupOf, v)
			cn++
		}
	}
	members = make([][]int, cn)
	for v := 0; v < n; v++ {
		members[cmap[v]] = append(members[cmap[v]], v)
	}

	// Build the compressed graph: edge (cu, cv) iff some original edge
	// joins the groups; weights 1 (structure only), vertex weight = size.
	b := graph.NewBuilder(cn)
	for c := 0; c < cn; c++ {
		b.SetVertexWeight(c, len(members[c]))
	}
	seen := make(map[[2]int]bool)
	for v := 0; v < n; v++ {
		cv := cmap[v]
		for _, u := range g.Neighbors(v) {
			cu := cmap[u]
			if cu == cv {
				continue
			}
			a, z := cv, cu
			if a > z {
				a, z = z, a
			}
			if !seen[[2]int{a, z}] {
				seen[[2]int{a, z}] = true
				b.AddEdge(a, z)
			}
		}
	}
	return b.MustBuild(), cmap, members, true
}

// ExpandPerm turns an elimination order of the compressed graph into one
// of the original graph: each supervertex's members are numbered
// consecutively at its position.
func ExpandPerm(cperm []int, members [][]int) []int {
	var perm []int
	for _, c := range cperm {
		perm = append(perm, members[c]...)
	}
	return perm
}

// MLNDCompressed runs indistinguishable-vertex compression, orders the
// compressed graph with MLND, and expands the permutation. On graphs with
// no duplicate structure it is equivalent to MLND on the original graph.
func MLNDCompressed(g *graph.Graph, opts Options) ([]int, error) {
	cg, _, members, ok := Compress(g)
	if !ok {
		return MLND(g, opts)
	}
	cperm, err := MLND(cg, opts)
	if err != nil {
		return nil, err
	}
	return ExpandPerm(cperm, members), nil
}
