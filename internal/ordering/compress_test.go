package ordering

import (
	"slices"
	"testing"

	"mlpart/internal/graph"
	"mlpart/internal/matgen"
	"mlpart/internal/sparse"
)

// duplicated builds a graph where each vertex of base is replaced by a
// clique of dup mutually-indistinguishable copies (the structure of an FE
// matrix with dup degrees of freedom per node).
func duplicated(base *graph.Graph, dup int) *graph.Graph {
	n := base.NumVertices()
	b := graph.NewBuilder(n * dup)
	id := func(v, d int) int { return v*dup + d }
	for v := 0; v < n; v++ {
		// Copies of v form a clique.
		for a := 0; a < dup; a++ {
			for c := a + 1; c < dup; c++ {
				b.AddEdge(id(v, a), id(v, c))
			}
		}
		for _, u := range base.Neighbors(v) {
			if u < v {
				continue
			}
			for a := 0; a < dup; a++ {
				for c := 0; c < dup; c++ {
					b.AddEdge(id(v, a), id(u, c))
				}
			}
		}
	}
	return b.MustBuild()
}

func TestCompressFindsDuplicates(t *testing.T) {
	base := matgen.Grid2D(6, 6)
	g := duplicated(base, 3)
	cg, cmap, members, ok := Compress(g)
	if !ok {
		t.Fatal("no compression found")
	}
	if cg.NumVertices() != base.NumVertices() {
		t.Fatalf("compressed to %d vertices, want %d", cg.NumVertices(), base.NumVertices())
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every group has exactly 3 members and weight 3.
	for c, m := range members {
		if len(m) != 3 {
			t.Fatalf("group %d has %d members", c, len(m))
		}
		if cg.Vwgt[c] != 3 {
			t.Fatalf("group %d weight %d", c, cg.Vwgt[c])
		}
		for _, v := range m {
			if cmap[v] != c {
				t.Fatal("cmap inconsistent with members")
			}
		}
	}
	// Compressed structure equals the base grid's structure.
	if cg.NumEdges() != base.NumEdges() {
		t.Fatalf("compressed edges %d, want %d", cg.NumEdges(), base.NumEdges())
	}
}

// TestCompressDeterministic: supervertex numbering must not depend on map
// iteration order, or the compressed ordering changes from run to run.
func TestCompressDeterministic(t *testing.T) {
	g := duplicated(matgen.Grid2D(12, 12), 2)
	_, want, _, _ := Compress(g)
	for i := 0; i < 4; i++ {
		if _, cmap, _, _ := Compress(g); !slices.Equal(cmap, want) {
			t.Fatal("Compress numbered the supervertices differently on a rerun")
		}
	}
}

func TestCompressNoDuplicates(t *testing.T) {
	g := matgen.Mesh2DTri(10, 10, 0.05, 1)
	cg, cmap, members, ok := Compress(g)
	if ok {
		// Random meshes can contain a few coincidentally indistinguishable
		// vertices; that's fine as long as the maps are consistent.
		total := 0
		for _, m := range members {
			total += len(m)
		}
		if total != g.NumVertices() {
			t.Fatal("members do not cover the graph")
		}
		return
	}
	if cg != g {
		t.Fatal("uncompressed case should return the original graph")
	}
	for v := range cmap {
		if cmap[v] != v || len(members[v]) != 1 || members[v][0] != v {
			t.Fatal("identity maps wrong")
		}
	}
}

func TestMLNDCompressedValidAndGood(t *testing.T) {
	base := matgen.Grid2D(8, 8)
	g := duplicated(base, 2)
	perm := run(t, MLNDCompressed, g, seeded(1))
	checkPerm(t, perm, g.NumVertices())
	a, err := sparse.Analyze(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	// Should be comparable to (or better than) plain MLND.
	plain, _ := sparse.Analyze(g, run(t, MLND, g, seeded(1)))
	if a.Flops > 1.5*plain.Flops {
		t.Errorf("compressed ordering flops %.3g much worse than plain %.3g", a.Flops, plain.Flops)
	}
}

func TestExpandPerm(t *testing.T) {
	members := [][]int{{2, 5}, {0}, {1, 3, 4}}
	perm := ExpandPerm([]int{1, 2, 0}, members)
	want := []int{0, 1, 3, 4, 2, 5}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v, want %v", perm, want)
		}
	}
}

func TestCompressHashCollisionSafety(t *testing.T) {
	// Vertices with equal degree but different neighborhoods must not be
	// merged even if hashes collide; exact verification guards this. Use a
	// star-of-paths where many vertices share degree.
	b := graph.NewBuilder(9)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8}, {1, 4}, {4, 7}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	_, cmap, _, _ := Compress(g)
	// 0 and 2 share N(v)∪{v}? N(0)={1}, N(2)={1}: closed {0,1} vs {1,2} -
	// distinct, must not merge.
	if cmap[0] == cmap[2] {
		t.Fatal("merged non-identical vertices")
	}
}
