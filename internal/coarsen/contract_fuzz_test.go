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
			got, cmap, ccew := ContractWS(g, match, cew, ws)
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
