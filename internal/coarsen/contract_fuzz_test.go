package coarsen

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"mlpart/internal/graph"
	"mlpart/internal/workspace"
)

// referenceContract is the contraction ContractWS must reproduce, written
// with a map: coarse vertices are numbered in order of their
// representatives (the lower-numbered vertex of a pair, or an unmatched
// vertex), and each coarse vertex lists its neighbours in the order the
// sweep over the representative's list, then its partner's, first meets
// them, with parallel edges summed. A multinode's contracted edge weight
// is the sum of its constituents' plus the weight of the first entry for
// the partner in the representative's list.
func referenceContract(g *graph.Graph, match, cew []int) (*graph.Graph, []int, []int) {
	n := g.NumVertices()
	cmap := make([]int, n)
	cn := 0
	for v := 0; v < n; v++ {
		if match[v] < 0 || match[v] >= v {
			cmap[v] = cn
			cn++
		}
	}
	for v := 0; v < n; v++ {
		if match[v] >= 0 && match[v] < v {
			cmap[v] = cmap[match[v]]
		}
	}
	cg := &graph.Graph{Xadj: []int{0}, Adjncy: []int{}, Adjwgt: []int{}, Vwgt: make([]int, cn)}
	ccew := make([]int, cn)
	at := map[int]int{}
	for v := 0; v < n; v++ {
		mv := match[v]
		if mv >= 0 && mv < v {
			continue
		}
		cv := cmap[v]
		members := []int{v}
		if mv >= 0 && mv != v {
			members = append(members, mv)
		}
		clear(at)
		inner := -1
		for j, u := range members {
			cg.Vwgt[cv] += g.Vwgt[u]
			if cew != nil {
				ccew[cv] += cew[u]
			}
			wgt := g.EdgeWeights(u)
			for i, w := range g.Neighbors(u) {
				c := cmap[w]
				if c == cv {
					if j == 0 && w == mv && inner < 0 {
						inner = wgt[i]
					}
					continue
				}
				if p, ok := at[c]; ok {
					cg.Adjwgt[p] += wgt[i]
					continue
				}
				at[c] = len(cg.Adjncy)
				cg.Adjncy = append(cg.Adjncy, c)
				cg.Adjwgt = append(cg.Adjwgt, wgt[i])
			}
		}
		if inner > 0 {
			ccew[cv] += inner
		}
		cg.Xadj = append(cg.Xadj, len(cg.Adjncy))
	}
	return cg, cmap, ccew
}

// fuzzContractInput builds a graph and a matching from fuzz arguments.
// data is read in 5-byte records (u, v as little-endian uint16, weight
// byte) as edges of an nn-vertex graph; a record whose weight byte has its
// top bit set also matches u with v if both are still unmatched. Vertex 0
// is also joined to every vertex 1..hub. Vertex weights and contracted
// edge weights come from seed, and then every pairs-th vertex, in a seeded
// order, is matched with an unmatched neighbour (pairs 0 matches no more).
func fuzzContractInput(data []byte, nn, hub uint16, pairs uint8, seed int64) (*graph.Graph, []int, []int) {
	n := 2 + int(nn)%4096
	match := make([]int, n)
	for v := range match {
		match[v] = v
	}
	b := graph.NewBuilder(n)
	for v := 1; v <= int(hub) && v < n; v++ {
		b.AddWeightedEdge(0, v, 1+v%5)
	}
	for i := 0; i+4 < len(data); i += 5 {
		u := int(binary.LittleEndian.Uint16(data[i:])) % n
		v := int(binary.LittleEndian.Uint16(data[i+2:])) % n
		if u == v {
			continue
		}
		b.AddWeightedEdge(u, v, 1+int(data[i+4])%16)
		if data[i+4]&0x80 != 0 && match[u] == u && match[v] == v {
			match[u], match[v] = v, u
		}
	}
	g := b.MustBuild()
	rng := rand.New(rand.NewSource(seed))
	var cew []int
	if seed%2 == 0 {
		cew = make([]int, n)
	}
	for v := 0; v < n; v++ {
		g.Vwgt[v] = 1 + rng.Intn(4)
		if cew != nil {
			cew[v] = rng.Intn(3)
		}
	}
	if pairs > 0 {
		for i, v := range rng.Perm(n) {
			if i%int(pairs) != 0 || match[v] != v {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if match[u] == u {
					match[v], match[u] = u, v
					break
				}
			}
		}
	}
	for v := range match {
		if match[v] == v && rng.Intn(5) == 0 {
			match[v] = -1 // the other spelling of unmatched
		}
	}
	return g, match, cew
}

// sharedEdges returns edge records that join and match each pair of
// vertices and join both to the vertices 1..reach: every multinode then
// lists the same coarse neighbours as the multinodes built before it, and
// finds each of them again in its partner's list.
func sharedEdges(pairs [][2]uint16, reach int) []byte {
	var data []byte
	edge := func(u, v uint16, w byte) {
		data = binary.LittleEndian.AppendUint16(data, u)
		data = binary.LittleEndian.AppendUint16(data, v)
		data = append(data, w)
	}
	for _, pr := range pairs {
		edge(pr[0], pr[1], 0x80|3)
		for c := 1; c <= reach; c++ {
			edge(pr[0], uint16(c), byte(c)&0x7f)
			edge(pr[1], uint16(c), byte(c*7)&0x7f)
		}
	}
	return data
}

// FuzzContract checks ContractWS against referenceContract: the same
// Xadj, Adjncy, Adjwgt, Vwgt, cmap and contracted edge weights, in the
// same order, with and without a workspace. The seeds include multinodes
// whose neighbours earlier multinodes listed too, and a hub.
func FuzzContract(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 3, 1, 0, 2, 0, 5, 2, 0, 3, 0, 1}, uint16(6), uint16(0), uint8(1), int64(1))
	f.Add(sharedEdges([][2]uint16{{100, 101}, {200, 201}, {300, 301}}, 40), uint16(400), uint16(0), uint8(0), int64(2))
	f.Add(sharedEdges([][2]uint16{{100, 101}, {200, 201}}, 40), uint16(400), uint16(0), uint8(3), int64(3))
	f.Add(sharedEdges([][2]uint16{{1500, 1501}}, 300), uint16(2000), uint16(1200), uint8(2), int64(4))
	f.Add([]byte{1, 0, 2, 0, 1}, uint16(2100), uint16(1100), uint8(1), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, nn, hub uint16, pairs uint8, seed int64) {
		g, match, cew := fuzzContractInput(data, nn, hub, pairs, seed)
		want, wantCmap, wantCew := referenceContract(g, match, cew)
		for _, ws := range []*workspace.Workspace{nil, new(workspace.Workspace)} {
			got, cmap, ccew := ContractWS(g, slices.Clone(match), cew, ws)
			switch {
			case !slices.Equal(got.Xadj, want.Xadj):
				t.Fatalf("Xadj differs from the reference")
			case !slices.Equal(got.Adjncy, want.Adjncy):
				t.Fatalf("Adjncy differs from the reference")
			case !slices.Equal(got.Adjwgt, want.Adjwgt):
				t.Fatalf("Adjwgt differs from the reference")
			case !slices.Equal(got.Vwgt, want.Vwgt):
				t.Fatalf("Vwgt differs from the reference")
			case !slices.Equal(cmap, wantCmap):
				t.Fatalf("cmap differs from the reference")
			case !slices.Equal(ccew, wantCew):
				t.Fatalf("contracted edge weights differ from the reference")
			}
		}
	})
}

// referenceContractClusters is the contraction ContractClustersWS must
// reproduce, written with member lists and a map: cluster c becomes coarse
// vertex c, which lists its neighbours in the order a sweep over its
// members, in ascending order, first meets them, with parallel edges
// summed. A multinode's contracted edge weight is the sum of its members'
// plus the weight of the edges between its members (half the weight of
// the entries that join two of them).
func referenceContractClusters(g *graph.Graph, cmap []int, cn int, cew []int) (*graph.Graph, []int) {
	members := make([][]int, cn)
	for v, c := range cmap {
		members[c] = append(members[c], v)
	}
	cg := &graph.Graph{Xadj: []int{0}, Adjncy: []int{}, Adjwgt: []int{}, Vwgt: make([]int, cn)}
	ccew := make([]int, cn)
	at := map[int]int{}
	for cv, ms := range members {
		clear(at)
		internal := 0
		for _, u := range ms {
			cg.Vwgt[cv] += g.Vwgt[u]
			if cew != nil {
				ccew[cv] += cew[u]
			}
			wgt := g.EdgeWeights(u)
			for i, w := range g.Neighbors(u) {
				c := cmap[w]
				if c == cv {
					internal += wgt[i]
					continue
				}
				if p, ok := at[c]; ok {
					cg.Adjwgt[p] += wgt[i]
					continue
				}
				at[c] = len(cg.Adjncy)
				cg.Adjncy = append(cg.Adjncy, c)
				cg.Adjwgt = append(cg.Adjwgt, wgt[i])
			}
		}
		ccew[cv] += internal / 2
		cg.Xadj = append(cg.Xadj, len(cg.Adjncy))
	}
	return cg, ccew
}

// fuzzClusters draws a clustering of g from seed and numbers it in
// first-member order, as clusterLPWS does. Each vertex, in ascending
// order, joins the cluster of its first lower neighbour with probability
// join/512, else that of a random lower vertex with probability join/512,
// and otherwise starts a cluster of its own; so clusters grow well past
// pairs, both along edges and across the graph.
func fuzzClusters(g *graph.Graph, join uint8, seed int64) ([]int, int) {
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed))
	label := make([]int, n)
	for v := range label {
		label[v] = v
		switch r := rng.Intn(512); {
		case r < int(join):
			for _, u := range g.Neighbors(v) {
				if u < v {
					label[v] = label[u]
					break
				}
			}
		case r < 2*int(join) && v > 0:
			label[v] = label[rng.Intn(v)]
		}
	}
	cmap := make([]int, n)
	id := map[int]int{}
	for v, l := range label {
		if _, ok := id[l]; !ok {
			id[l] = len(id)
		}
		cmap[v] = id[l]
	}
	return cmap, len(id)
}

// FuzzContractClusters checks ContractClustersWS against
// referenceContractClusters on random first-member-ordered clusterings of
// the FuzzContract graphs: the same Xadj, Adjncy, Adjwgt, Vwgt and
// contracted edge weights, in the same order, with and without a
// workspace. The seeds include one giant cluster, all singletons, a hub
// and multinodes that share their coarse neighbours.
func FuzzContractClusters(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 3, 1, 0, 2, 0, 5, 2, 0, 3, 0, 1}, uint16(6), uint16(0), uint8(200), int64(1))
	f.Add(sharedEdges([][2]uint16{{100, 101}, {200, 201}, {300, 301}}, 40), uint16(400), uint16(0), uint8(120), int64(2))
	f.Add(sharedEdges([][2]uint16{{1500, 1501}}, 300), uint16(2000), uint16(1200), uint8(60), int64(4))
	f.Add([]byte{1, 0, 2, 0, 1}, uint16(2100), uint16(1100), uint8(255), int64(5))
	f.Add([]byte{1, 0, 2, 0, 1}, uint16(300), uint16(50), uint8(0), int64(6))
	f.Fuzz(func(t *testing.T, data []byte, nn, hub uint16, join uint8, seed int64) {
		g, _, cew := fuzzContractInput(data, nn, hub, 0, seed)
		cmap, cn := fuzzClusters(g, join, seed)
		want, wantCew := referenceContractClusters(g, cmap, cn, cew)
		for _, ws := range []*workspace.Workspace{nil, new(workspace.Workspace)} {
			got, ccew := ContractClustersWS(g, cmap, cn, cew, ws)
			switch {
			case !slices.Equal(got.Xadj, want.Xadj):
				t.Fatalf("Xadj differs from the reference")
			case !slices.Equal(got.Adjncy, want.Adjncy):
				t.Fatalf("Adjncy differs from the reference")
			case !slices.Equal(got.Adjwgt, want.Adjwgt):
				t.Fatalf("Adjwgt differs from the reference")
			case !slices.Equal(got.Vwgt, want.Vwgt):
				t.Fatalf("Vwgt differs from the reference")
			case !slices.Equal(ccew, wantCew):
				t.Fatalf("contracted edge weights differ from the reference")
			}
		}
	})
}
