package kway_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlpart/internal/kway"
	"mlpart/internal/matgen"
	"mlpart/internal/metrics"
	"mlpart/internal/multilevel"
	"mlpart/internal/refine"
)

func TestNewPartitionState(t *testing.T) {
	g := matgen.Grid2D(4, 4)
	where := make([]int, 16)
	for v := range where {
		where[v] = v % 4
	}
	p := kway.NewPartition(g, 4, where)
	if p.Cut != refine.ComputeCut(g, where) {
		t.Fatalf("cut %d, want %d", p.Cut, refine.ComputeCut(g, where))
	}
	tot := 0
	for _, w := range p.Pwgt {
		tot += w
	}
	if tot != g.TotalVertexWeight() {
		t.Fatal("part weights do not sum to total")
	}
}

func TestRefineImprovesRandomKWay(t *testing.T) {
	g := matgen.Mesh2DTri(25, 25, 0, 1)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(2))
	where := make([]int, n)
	for v := range where {
		where[v] = rng.Intn(8)
	}
	p := kway.NewPartition(g, 8, where)
	before := p.Cut
	after := refine.RefineKWay(p, refine.KWayOptions{Seed: 3})
	if after >= before {
		t.Fatalf("no improvement: %d -> %d", before, after)
	}
	if got := refine.ComputeCut(g, p.Where); got != after {
		t.Fatalf("incremental cut %d, recomputed %d", after, got)
	}
}

func TestRefineNeverWorsens(t *testing.T) {
	g := matgen.FE3DTetra(7, 7, 7, 4)
	res, err := multilevel.Partition(g, 16, multilevel.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := kway.NewPartition(g, 16, append([]int(nil), res.Where...))
	before := p.Cut
	after := refine.RefineKWay(p, refine.KWayOptions{Seed: 6})
	if after > before {
		t.Fatalf("worsened: %d -> %d", before, after)
	}
}

func TestRefineImprovesRecursiveBisection(t *testing.T) {
	// Direct k-way refinement on top of recursive bisection should help on
	// aggregate (this is its reason to exist).
	improvedTotal, baseTotal := 0, 0
	for seed := int64(0); seed < 5; seed++ {
		g := matgen.Mesh2DTri(30, 30, 0.02, seed)
		res, err := multilevel.Partition(g, 16, multilevel.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		baseTotal += res.EdgeCut
		p := kway.NewPartition(g, 16, append([]int(nil), res.Where...))
		improvedTotal += refine.RefineKWay(p, refine.KWayOptions{Seed: seed})
	}
	if improvedTotal > baseTotal {
		t.Fatalf("k-way refinement worsened aggregate: %d -> %d", baseTotal, improvedTotal)
	}
}

func TestRefineRespectsBalance(t *testing.T) {
	g := matgen.Grid2D(24, 24)
	res, err := multilevel.Partition(g, 8, multilevel.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := kway.NewPartition(g, 8, res.Where)
	refine.RefineKWay(p, refine.KWayOptions{Seed: 8, Ubfactor: 1.05})
	if b := metrics.Balance(p.Pwgt); b > 1.1 {
		t.Fatalf("balance %v after refinement", b)
	}
	for _, w := range p.Pwgt {
		if w <= 0 {
			t.Fatal("a part was emptied")
		}
	}
}

func TestRefineK1AndEmpty(t *testing.T) {
	g := matgen.Grid2D(3, 3)
	p := kway.NewPartition(g, 1, make([]int, 9))
	if refine.RefineKWay(p, refine.KWayOptions{}) != 0 {
		t.Fatal("k=1 cut nonzero")
	}
}

func TestRefineDeterministic(t *testing.T) {
	g := matgen.FE3DTetra(6, 6, 6, 9)
	res, _ := multilevel.Partition(g, 8, multilevel.Options{Seed: 10})
	a := kway.NewPartition(g, 8, append([]int(nil), res.Where...))
	b := kway.NewPartition(g, 8, append([]int(nil), res.Where...))
	refine.RefineKWay(a, refine.KWayOptions{Seed: 11})
	refine.RefineKWay(b, refine.KWayOptions{Seed: 11})
	for v := range a.Where {
		if a.Where[v] != b.Where[v] {
			t.Fatal("not deterministic")
		}
	}
}

// Property: refinement preserves weights, keeps parts in range, and the
// incremental cut matches a recomputation.
func TestRefinePropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := matgen.FE3DTetra(5, 5, 4, seed)
		n := g.NumVertices()
		k := 2 + int(uint64(seed)%6)
		rng := rand.New(rand.NewSource(seed))
		where := make([]int, n)
		for v := range where {
			where[v] = rng.Intn(k)
		}
		p := kway.NewPartition(g, k, where)
		before := p.Cut
		after := refine.RefineKWay(p, refine.KWayOptions{Seed: seed})
		if after > before {
			return false
		}
		tot := 0
		for _, w := range p.Pwgt {
			if w < 0 {
				return false
			}
			tot += w
		}
		if tot != g.TotalVertexWeight() {
			return false
		}
		for _, part := range p.Where {
			if part < 0 || part >= k {
				return false
			}
		}
		return refine.ComputeCut(g, p.Where) == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
