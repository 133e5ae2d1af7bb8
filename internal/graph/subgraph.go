package graph

import "mlpart/internal/workspace"

// Subgraph extracts the induced subgraph over the vertices v with
// keep[v] == true. It returns the subgraph and the mapping local2global,
// where local2global[i] is the original id of subgraph vertex i. Edges
// with exactly one endpoint inside are dropped (they are the cut edges).
func (g *Graph) Subgraph(keep []bool) (*Graph, []int) {
	n := g.NumVertices()
	local2global := make([]int, 0)
	global2local := make([]int, n)
	for v := 0; v < n; v++ {
		if keep[v] {
			global2local[v] = len(local2global)
			local2global = append(local2global, v)
		} else {
			global2local[v] = -1
		}
	}
	sn := len(local2global)
	xadj := make([]int, sn+1)
	for i, v := range local2global {
		d := 0
		for _, u := range g.Neighbors(v) {
			if keep[u] {
				d++
			}
		}
		xadj[i+1] = xadj[i] + d
	}
	adjncy := make([]int, xadj[sn])
	adjwgt := make([]int, xadj[sn])
	vwgt := make([]int, sn)
	for i, v := range local2global {
		vwgt[i] = g.Vwgt[v]
		p := xadj[i]
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		for j, u := range adj {
			if keep[u] {
				adjncy[p] = global2local[u]
				adjwgt[p] = wgt[j]
				p++
			}
		}
	}
	return &Graph{Xadj: xadj, Adjncy: adjncy, Adjwgt: adjwgt, Vwgt: vwgt}, local2global
}

// PartSubgraph extracts the induced subgraph over vertices with
// where[v] == part. See Subgraph for the return values.
func (g *Graph) PartSubgraph(where []int, part int) (*Graph, []int) {
	return g.PartSubgraphWS(where, part, nil)
}

// PartSubgraphWS is PartSubgraph drawing the subgraph's four arrays, the
// returned local2global map and its scratch from ws. The arrays are pooled
// buffers owned by the caller, who returns the graph with Release; a nil
// ws allocates fresh ones. One pass over where numbers the part's vertices
// and sums their degrees, which bounds the subgraph's adjacency, so the
// second pass reads each kept vertex's adjacency list once; the adjacency
// arrays are trimmed to their length afterwards (workspace.TrimInt).
func (g *Graph) PartSubgraphWS(where []int, part int, ws *workspace.Workspace) (*Graph, []int) {
	n := g.NumVertices()
	// global2local is read only at vertices of the part.
	global2local := ws.Int(n)
	sn, deg := 0, 0
	for v, p := range where[:n] {
		if p == part {
			global2local[v] = sn
			sn++
			deg += g.Degree(v)
		}
	}
	local2global := ws.Int(sn)
	xadj := ws.Int(sn + 1)
	adjncy := ws.Int(deg)
	adjwgt := ws.Int(deg)
	vwgt := ws.Int(sn)
	xadj[0] = 0
	i, pos := 0, 0
	for v := 0; v < n; v++ {
		if where[v] != part {
			continue
		}
		local2global[i] = v
		vwgt[i] = g.Vwgt[v]
		wgt := g.EdgeWeights(v)
		for j, u := range g.Neighbors(v) {
			if where[u] == part {
				adjncy[pos] = global2local[u]
				adjwgt[pos] = wgt[j]
				pos++
			}
		}
		i++
		xadj[i] = pos
	}
	ws.PutInt(global2local)
	return &Graph{Xadj: xadj, Adjncy: ws.TrimInt(adjncy, pos), Adjwgt: ws.TrimInt(adjwgt, pos), Vwgt: vwgt}, local2global
}

// Release returns the four CSR arrays of a graph whose arrays came from ws
// (PartSubgraphWS, a coarsening contraction) to ws. g must not be used
// afterwards.
func (g *Graph) Release(ws *workspace.Workspace) {
	ws.PutInt(g.Xadj)
	ws.PutInt(g.Adjncy)
	ws.PutInt(g.Adjwgt)
	ws.PutInt(g.Vwgt)
}
