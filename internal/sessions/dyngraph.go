package sessions

import (
	"slices"

	"mlpart/internal/graph"
)

// dynGraph is the mutable adjacency form of a resident graph. The CSR
// form the engine consumes is immutable by design (slices aliased by
// zero-copy decoders, fingerprints over the raw arrays), so sessions
// keep a map-based undirected adjacency that absorbs delta batches in
// O(1) per edge and lazily re-materializes a deterministic CSR snapshot
// when a repair needs one. The snapshot is rebuilt into the arrays of the
// previous one, so a session holds one CSR and a repair allocates none
// unless the adjacency outgrew it.
type dynGraph struct {
	vwgt []int
	// adj[u] maps neighbor -> edge weight; every undirected edge appears
	// in both endpoints' maps (the same invariant CSR keeps).
	adj []map[int]int
	// dir is the number of directed adjacency entries (2× the undirected
	// edge count), maintained incrementally.
	dir int
	// totVwgt is the sum of vertex weights, maintained incrementally.
	totVwgt int
	// csr is the materialized snapshot, nil until the first one. Its
	// arrays outlive mutations: the next snapshot rebuilds them in place.
	csr *graph.Graph
	// fresh reports that csr matches the adjacency; mutations clear it.
	fresh bool
}

// newDynGraph copies g into mutable form. g is not retained.
func newDynGraph(g *graph.Graph) *dynGraph {
	n := g.NumVertices()
	d := &dynGraph{
		vwgt: make([]int, n),
		adj:  make([]map[int]int, n),
	}
	for u := 0; u < n; u++ {
		w := 1
		if len(g.Vwgt) > 0 {
			w = g.Vwgt[u]
		}
		d.vwgt[u] = w
		d.totVwgt += w
		deg := int(g.Xadj[u+1] - g.Xadj[u])
		m := make(map[int]int, deg)
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			ew := 1
			if len(g.Adjwgt) > 0 {
				ew = g.Adjwgt[i]
			}
			m[g.Adjncy[i]] = ew
		}
		d.adj[u] = m
		d.dir += len(m)
	}
	return d
}

func (d *dynGraph) numVertices() int { return len(d.vwgt) }

// edgeWeight returns the weight of edge (u,v) and whether it exists.
func (d *dynGraph) edgeWeight(u, v int) (int, bool) {
	w, ok := d.adj[u][v]
	return w, ok
}

// setEdge inserts or reweights the undirected edge (u,v). Callers
// validate u != v and w > 0.
func (d *dynGraph) setEdge(u, v, w int) {
	if _, ok := d.adj[u][v]; !ok {
		d.dir += 2
	}
	d.adj[u][v] = w
	d.adj[v][u] = w
	d.fresh = false
}

// delEdge removes the undirected edge (u,v). Callers validate it exists.
func (d *dynGraph) delEdge(u, v int) {
	delete(d.adj[u], v)
	delete(d.adj[v], u)
	d.dir -= 2
	d.fresh = false
}

// setVwgt replaces vertex u's weight. Callers validate w > 0.
func (d *dynGraph) setVwgt(u, w int) {
	d.totVwgt += w - d.vwgt[u]
	d.vwgt[u] = w
	// CSR carries vertex weights too.
	d.fresh = false
}

// snapshot materializes (and caches) the CSR form. Neighbor lists are
// emitted in ascending vertex order so the same adjacency state always
// yields the same CSR arrays — the determinism the delta-log replay and
// the fingerprint both rely on.
//
// The returned graph is valid until the next mutation, which hands its
// arrays to the following snapshot; callers must not keep it past one
// repair or snapshot write. Adjncy and Adjwgt are reallocated, at exactly
// the new size, only when the adjacency outgrew their capacity.
func (d *dynGraph) snapshot() *graph.Graph {
	if d.fresh {
		return d.csr
	}
	n := len(d.vwgt)
	g := d.csr
	if g == nil {
		g = &graph.Graph{Xadj: make([]int, n+1), Vwgt: make([]int, n)}
		d.csr = g
	}
	if cap(g.Adjncy) < d.dir {
		g.Adjncy, g.Adjwgt = make([]int, d.dir), make([]int, d.dir)
	}
	g.Adjncy, g.Adjwgt = g.Adjncy[:d.dir], g.Adjwgt[:d.dir]
	copy(g.Vwgt, d.vwgt)
	at := 0
	for u := 0; u < n; u++ {
		nbrs := g.Adjncy[at : at+len(d.adj[u])]
		i := 0
		for v := range d.adj[u] {
			nbrs[i] = v
			i++
		}
		slices.Sort(nbrs)
		for i, v := range nbrs {
			g.Adjwgt[at+i] = d.adj[u][v]
		}
		at += len(nbrs)
		g.Xadj[u+1] = at
	}
	d.fresh = true
	return g
}

// Per-element byte estimates behind the session memory accounting.
// Go maps cost roughly 50 bytes per int->int entry once bucket overhead
// and load factor are amortized; each undirected edge owns two entries.
// The vertex figure covers the map header, the vwgt element and the
// session's where slot. The CSR, once materialized, adds its array bytes
// on top, at the current entry count: like map buckets, the capacity
// that removals leave behind is not counted.
const (
	bytesPerVertex   = 96
	bytesPerDirEntry = 56
)

// bytes estimates the resident heap footprint of the dynamic form plus
// the CSR snapshot (if one was ever materialized).
func (d *dynGraph) bytes() int64 {
	n, dir := int64(len(d.vwgt)), int64(d.dir)
	b := n*bytesPerVertex + dir*bytesPerDirEntry
	if d.csr != nil {
		b += (2*n + 1 + 2*dir) * 8
	}
	return b
}
