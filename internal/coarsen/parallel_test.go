package coarsen

import (
	"math/rand"
	"testing"

	"mlpart/internal/matgen"
)

func TestParallelMatchValidMatching(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 1)
	for _, s := range allSchemes() {
		match := ParallelMatchWS(g, s, nil, nil, rng(2), 4, nil)
		checkMatching(t, g, match, s)
	}
}

func TestParallelMatchIndependentOfWorkers(t *testing.T) {
	g := matgen.Mesh2DTri(25, 25, 0.02, 3)
	for _, s := range []Scheme{RM, HEM} {
		ref := ParallelMatchWS(g, s, nil, nil, rng(4), 1, nil)
		for _, workers := range []int{2, 3, 8} {
			got := ParallelMatchWS(g, s, nil, nil, rng(4), workers, nil)
			for v := range ref {
				if got[v] != ref[v] {
					t.Fatalf("%v: workers=%d differs from workers=1 at vertex %d", s, workers, v)
				}
			}
		}
	}
}

func TestParallelMatchMatchesMostVertices(t *testing.T) {
	// Handshake matching must be near-maximal: on a mesh, the vast
	// majority of vertices end up matched.
	g := matgen.Grid2D(40, 40)
	match := ParallelMatchWS(g, HEM, nil, nil, rng(5), 4, nil)
	unmatched := 0
	for v, m := range match {
		if m == v {
			unmatched++
		}
	}
	if unmatched > g.NumVertices()/5 {
		t.Fatalf("%d of %d vertices unmatched", unmatched, g.NumVertices())
	}
}

func TestParallelCoarsenHierarchy(t *testing.T) {
	g := matgen.Stiffness3D(9, 9, 9)
	h := ParallelCoarsen(g, Options{Scheme: HEM, CoarsenTo: 100}, rng(6), 4)
	if len(h.Levels) < 2 {
		t.Fatal("no coarsening")
	}
	for i, lv := range h.Levels {
		if err := lv.Graph.Validate(); err != nil {
			t.Fatalf("level %d: %v", i, err)
		}
		if lv.Graph.TotalVertexWeight() != g.TotalVertexWeight() {
			t.Fatalf("level %d: vertex weight changed", i)
		}
	}
	// Deterministic across worker counts.
	h2 := ParallelCoarsen(g, Options{Scheme: HEM, CoarsenTo: 100}, rng(6), 1)
	if len(h2.Levels) != len(h.Levels) {
		t.Fatal("level counts differ across worker counts")
	}
	a, b := h.Coarsest(), h2.Coarsest()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatal("coarsest graphs differ across worker counts")
	}
}

func TestParallelMatchEdgeless(t *testing.T) {
	g := matgen.Grid2D(1, 1)
	match := ParallelMatchWS(g, RM, nil, nil, rand.New(rand.NewSource(1)), 4, nil)
	if match[0] != 0 {
		t.Fatal("singleton should self-match")
	}
}

func BenchmarkMatchSequential(b *testing.B) {
	b.ReportAllocs()
	g := matgen.Stiffness3D(20, 20, 20)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchWS(g, HEM, nil, nil, r, nil)
	}
}

func BenchmarkMatchParallel(b *testing.B) {
	b.ReportAllocs()
	g := matgen.Stiffness3D(20, 20, 20)
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "workers=1", 4: "workers=4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			r := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ParallelMatchWS(g, HEM, nil, nil, r, workers, nil)
			}
		})
	}
}

// BenchmarkContract times the contraction kernel on one level of a 3D
// stiffness matrix, fed by each adapter: an HEM matching, and a GCLP
// clustering whose clusters hold up to 1% of the vertex weight.
func BenchmarkContract(b *testing.B) {
	g := matgen.Stiffness3D(16, 16, 16)
	b.Run("HEM", func(b *testing.B) {
		b.ReportAllocs()
		match := MatchWS(g, HEM, nil, nil, rand.New(rand.NewSource(1)), nil)
		chain := make([]int, len(match))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(chain, match) // ContractWS consumes its matching
			ContractWS(g, chain, nil, nil)
		}
	})
	b.Run("GCLP", func(b *testing.B) {
		b.ReportAllocs()
		cfg := lpConfig{maxWeight: g.TotalVertexWeight() / 100, rounds: defaultLPRounds, workers: 1}
		cmap, cn := clusterLPWS(g, nil, cfg, rand.New(rand.NewSource(1)), nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ContractClustersWS(g, cmap, cn, nil, nil)
		}
	})
}
