package refine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/graph"
	"mlpart/internal/matgen"
	"mlpart/internal/workspace"
)

// sameBisection fails unless got equals want field by field: partition,
// part weights, cut, degrees, boundary list in order, boundary index and
// the cached maximum degree.
func sameBisection(t testing.TB, got, want *Bisection) {
	t.Helper()
	switch {
	case !slices.Equal(got.Where, want.Where):
		t.Fatal("where differs")
	case got.Pwgt != want.Pwgt:
		t.Fatalf("pwgt %v, rebuilt %v", got.Pwgt, want.Pwgt)
	case got.Cut != want.Cut:
		t.Fatalf("cut %d, rebuilt %d", got.Cut, want.Cut)
	case !slices.Equal(got.ID, want.ID) || !slices.Equal(got.ED, want.ED):
		t.Fatal("degrees differ")
	case !slices.Equal(got.bndList, want.bndList):
		t.Fatalf("boundary %v, rebuilt %v", got.bndList, want.bndList)
	case !slices.Equal(got.bndIndex, want.bndIndex):
		t.Fatal("boundary index differs")
	case got.maxDeg != want.maxDeg:
		t.Fatalf("max degree %d, rebuilt %d", got.maxDeg, want.maxDeg)
	}
}

// isolatedGraph is a weighted grid with every seventh vertex cut loose.
func isolatedGraph() *graph.Graph {
	const rows, cols = 12, 12
	rng := rand.New(rand.NewSource(4))
	b := graph.NewBuilder(rows * cols)
	lone := func(v int) bool { return v%7 == 3 }
	for v := 0; v < rows*cols; v++ {
		b.SetVertexWeight(v, 1+rng.Intn(3))
		if (v+1)%cols != 0 && !lone(v) && !lone(v+1) {
			b.AddWeightedEdge(v, v+1, 1+rng.Intn(5))
		}
		if v+cols < rows*cols && !lone(v) && !lone(v+cols) {
			b.AddWeightedEdge(v, v+cols, 1+rng.Intn(5))
		}
	}
	return b.MustBuild()
}

// TestProjectMatchesRebuild walks real hierarchies — HEM, GCLP, and HEM
// respecting a partition — of a mesh, a power-law graph, a weighted grid
// and a graph with isolated vertices from the coarsest level up. At every
// level the projection of the refined coarser bisection must equal
// NewBisection of the projected partition field by field.
func TestProjectMatchesRebuild(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"fe3d", matgen.FE3DTetra(6, 6, 6, 1)},
		{"soc", matgen.SocialNetwork(600, 4, 2)},
		{"weighted-grid", weightedGrid(14, 14, 3)},
		{"isolated", isolatedGraph()},
	}
	for _, tc := range graphs {
		n := tc.g.NumVertices()
		for _, scheme := range []string{"HEM", "GCLP", "HEM-respect"} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, scheme), func(t *testing.T) {
				copts := coarsen.Options{Scheme: coarsen.HEM, CoarsenTo: 20}
				switch scheme {
				case "GCLP":
					copts.Scheme = coarsen.GCLP
				case "HEM-respect":
					copts.Respect = randomWhere(n, 5)
				}
				ws := &workspace.Workspace{}
				copts.Workspace = ws
				h := coarsen.Coarsen(tc.g, copts, rand.New(rand.NewSource(7)))
				if len(h.Levels) < 3 {
					t.Fatalf("hierarchy of %d levels", len(h.Levels))
				}
				cw := randomWhere(h.Coarsest().NumVertices(), 11)
				b := NewBisectionWS(h.Coarsest(), cw, ws)
				interior := 0
				for li := len(h.Levels) - 2; li >= 0; li-- {
					Refine(b, BKLGR, Options{Workspace: ws})
					for v := range b.Where {
						if b.ED[v] == 0 {
							interior++
						}
					}
					fine := ProjectWS(h.Levels[li].Graph, h.Levels[li].Cmap, b, ws)
					sameBisection(t, fine, NewBisection(fine.G, slices.Clone(fine.Where)))
					b.Release(ws)
					b = fine
				}
				if interior == 0 {
					t.Fatal("no interior multinode on any level")
				}
				h.Release(ws)
			})
		}
	}
}

// FuzzProject contracts a random graph by a random matching, partitions
// the coarse graph at random, and checks that Project equals a rebuild of
// the projected partition. The bytes of data are read in triples
// (u, v, w) as edges; n, the matching and the partitions come from the
// other arguments.
func FuzzProject(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 2, 3, 5, 3, 0, 2, 0, 2, 9}, uint8(6), int64(1))
	f.Add([]byte{0, 1, 9, 0, 2, 9, 0, 3, 9, 0, 4, 9, 4, 5, 1, 5, 6, 1, 6, 7, 1}, uint8(10), int64(7))
	f.Fuzz(func(t *testing.T, data []byte, nb uint8, seed int64) {
		n := 2 + int(nb)%64
		b := graph.NewBuilder(n)
		for i := 0; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				b.AddWeightedEdge(u, v, 1+int(data[i+2])%16)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for v := range g.Vwgt {
			g.Vwgt[v] = 1 + rng.Intn(4)
		}
		// A random matching: visit vertices in random order and pair each
		// unmatched one with a random unmatched neighbour, if any.
		match := make([]int, n)
		for v := range match {
			match[v] = -1
		}
		for _, v := range rng.Perm(n) {
			if match[v] >= 0 {
				continue
			}
			match[v] = v
			var free []int
			for _, u := range g.Neighbors(v) {
				if match[u] < 0 {
					free = append(free, u)
				}
			}
			if len(free) > 0 {
				u := free[rng.Intn(len(free))]
				match[v], match[u] = u, v
			}
		}
		cg, cmap, _ := coarsen.ContractWS(g, match, nil, nil)
		cwhere := make([]int, cg.NumVertices())
		for c := range cwhere {
			cwhere[c] = rng.Intn(2)
		}
		coarse := NewBisection(cg, cwhere)
		if seed%2 == 0 {
			Refine(coarse, KLR, Options{})
		}
		fine := Project(g, cmap, coarse)
		sameBisection(t, fine, NewBisection(g, slices.Clone(fine.Where)))
	})
}
