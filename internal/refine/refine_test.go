package refine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlpart/internal/graph"
	"mlpart/internal/matgen"
)

func randomWhere(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	where := make([]int, n)
	for i := range where {
		where[i] = rng.Intn(2)
	}
	return where
}

func TestNewBisectionComputesState(t *testing.T) {
	// Path 0-1-2-3 split in the middle: cut 1, boundary {1, 2}.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	bis := NewBisection(g, []int{0, 0, 1, 1})
	if bis.Cut != 1 {
		t.Fatalf("cut = %d, want 1", bis.Cut)
	}
	if bis.Pwgt != [2]int{2, 2} {
		t.Fatalf("pwgt = %v", bis.Pwgt)
	}
	if !bis.IsBoundary(1) || !bis.IsBoundary(2) || bis.IsBoundary(0) || bis.IsBoundary(3) {
		t.Fatal("boundary flags wrong")
	}
	if bis.Gain(1) != 0 { // ED=1 (to 2), ID=1 (to 0)
		t.Fatalf("gain(1) = %d, want 0", bis.Gain(1))
	}
	if err := bis.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveMaintainsInvariants(t *testing.T) {
	g := matgen.Mesh2DTri(10, 10, 0, 1)
	bis := NewBisection(g, randomWhere(g.NumVertices(), 2))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		v := rng.Intn(g.NumVertices())
		bis.Move(v, nil)
		if i%50 == 0 {
			if err := bis.Verify(); err != nil {
				t.Fatalf("after %d moves: %v", i, err)
			}
		}
	}
	if err := bis.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveIsInvolution(t *testing.T) {
	g := matgen.Grid2D(6, 6)
	where := randomWhere(g.NumVertices(), 4)
	bis := NewBisection(g, append([]int(nil), where...))
	cut0 := bis.Cut
	bis.Move(7, nil)
	bis.Move(7, nil)
	if bis.Cut != cut0 {
		t.Fatalf("double move changed cut: %d -> %d", cut0, bis.Cut)
	}
	if err := bis.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeCutMatchesBisection(t *testing.T) {
	g := matgen.FE3DTetra(5, 5, 5, 5)
	where := randomWhere(g.NumVertices(), 6)
	bis := NewBisection(g, where)
	if got := ComputeCut(g, where); got != bis.Cut {
		t.Fatalf("ComputeCut = %d, Bisection.Cut = %d", got, bis.Cut)
	}
}

func allPolicies() []Policy { return []Policy{GR, KLR, BGR, BKLR, BKLGR} }

func TestRefineNeverWorsensCut(t *testing.T) {
	g := matgen.Mesh2DTri(20, 20, 0.02, 7)
	for _, p := range allPolicies() {
		where := randomWhere(g.NumVertices(), 8)
		bis := NewBisection(g, where)
		before := bis.Cut
		after := Refine(bis, p, Options{})
		if after > before {
			t.Errorf("%v: cut worsened %d -> %d", p, before, after)
		}
		if err := bis.Verify(); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
}

func TestRefineImprovesRandomPartition(t *testing.T) {
	// A random bisection of a mesh cuts ~half the edges; any KL-family
	// refinement should cut that dramatically.
	g := matgen.Grid2D(30, 30)
	for _, p := range allPolicies() {
		bis := NewBisection(g, randomWhere(g.NumVertices(), 9))
		before := bis.Cut
		after := Refine(bis, p, Options{})
		if after >= before*3/4 {
			t.Errorf("%v: weak improvement %d -> %d", p, before, after)
		}
	}
}

func TestRefineRespectsBalance(t *testing.T) {
	g := matgen.Mesh2DTri(25, 25, 0, 10)
	for _, p := range allPolicies() {
		// Start balanced; refinement must keep each side within tolerance.
		n := g.NumVertices()
		where := make([]int, n)
		for i := n / 2; i < n; i++ {
			where[i] = 1
		}
		bis := NewBisection(g, where)
		Refine(bis, p, Options{Ubfactor: 1.1})
		if bal := bis.Balance(); bal > 1.12 {
			t.Errorf("%v: balance %v exceeds tolerance", p, bal)
		}
	}
}

func TestNoRefineIsNoop(t *testing.T) {
	g := matgen.Grid2D(8, 8)
	where := randomWhere(g.NumVertices(), 11)
	bis := NewBisection(g, append([]int(nil), where...))
	before := bis.Cut
	if after := Refine(bis, NoRefine, Options{}); after != before {
		t.Fatalf("NoRefine changed cut %d -> %d", before, after)
	}
}

func TestKLRAtLeastAsGoodAsGR(t *testing.T) {
	// On average, multi-pass refinement is at least as good as one pass
	// from the same start. Compare exactly from identical partitions.
	g := matgen.FE3DTetra(7, 7, 7, 12)
	worse := 0
	for seed := int64(0); seed < 10; seed++ {
		w := randomWhere(g.NumVertices(), seed)
		a := NewBisection(g, append([]int(nil), w...))
		b := NewBisection(g, append([]int(nil), w...))
		cutGR := Refine(a, GR, Options{})
		cutKLR := Refine(b, KLR, Options{})
		if cutKLR > cutGR {
			worse++
		}
	}
	if worse > 0 {
		t.Fatalf("KLR worse than GR from the same start in %d/10 trials", worse)
	}
}

func TestProjectPreservesCut(t *testing.T) {
	// Build a tiny 2-level hierarchy by hand: contract pairs (2i, 2i+1).
	g := matgen.Grid2D(8, 8)
	n := g.NumVertices()
	cmap := make([]int, n)
	for v := 0; v < n; v++ {
		cmap[v] = v / 2
	}
	// Coarse graph with matching vertex weights (only Where/Cut needed by
	// Project, but build a real coarse graph for a faithful test).
	cb := graph.NewBuilder(n / 2)
	for v := 0; v < n; v++ {
		adj := g.Neighbors(v)
		for _, u := range adj {
			if cmap[u] != cmap[v] && cmap[v] < cmap[u] {
				cb.AddEdge(cmap[v], cmap[u])
			}
		}
	}
	cg := cb.MustBuild()
	for i := range cg.Vwgt {
		cg.Vwgt[i] = 2
	}
	// A random coarse partition leaves few multinodes interior; halving
	// the coarse ids leaves most of them interior, which Project takes
	// without reading their neighbours' parts.
	cn := cg.NumVertices()
	half := make([]int, cn)
	for c := range half {
		half[c] = 2 * c / cn
	}
	for _, tc := range []struct {
		where       []int
		minInterior int
	}{{randomWhere(cn, 13), 0}, {half, cn / 2}} {
		cwhere := tc.where
		coarse := NewBisection(cg, cwhere)
		interior := cn - len(coarse.Boundary())
		if interior < tc.minInterior {
			t.Fatalf("only %d of %d multinodes interior, want at least %d", interior, cn, tc.minInterior)
		}
		fine := Project(g, cmap, coarse)
		// The projected cut equals the fine cut of the projected vector.
		want := ComputeCut(g, fine.Where)
		if fine.Cut != want {
			t.Fatalf("projected cut %d, want %d", fine.Cut, want)
		}
		for v := 0; v < n; v++ {
			if fine.Where[v] != cwhere[cmap[v]] {
				t.Fatal("projection assigned wrong part")
			}
		}
		if err := fine.Verify(); err != nil {
			t.Fatalf("%d of %d multinodes interior: %v", interior, cn, err)
		}
	}
}

func TestForceBalance(t *testing.T) {
	g := matgen.Grid2D(12, 12)
	n := g.NumVertices()
	// Grossly unbalanced: 10 vertices on side 1.
	where := make([]int, n)
	for i := 0; i < 10; i++ {
		where[i] = 1
	}
	bis := NewBisection(g, where)
	ForceBalance(bis, Options{Ubfactor: 1.05})
	if bal := bis.Balance(); bal > 1.2 {
		t.Fatalf("balance = %v after ForceBalance", bal)
	}
	if err := bis.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestGainBuckets(t *testing.T) {
	b := NewGainBuckets(10, 5)
	b.Insert(0, 3)
	b.Insert(1, -2)
	b.Insert(2, 5)
	b.Insert(3, 3)
	if b.Empty() {
		t.Fatal("empty after inserts")
	}
	v, ok := b.PopMax()
	if !ok || v != 2 {
		t.Fatalf("popMax = %d, want 2", v)
	}
	v, _ = b.PopMax()
	if v != 0 && v != 3 {
		t.Fatalf("popMax = %d, want 0 or 3", v)
	}
	b.Update(1, 4)
	v, _ = b.PopMax()
	if v != 1 {
		t.Fatalf("popMax after update = %d, want 1", v)
	}
	b.Remove(0)
	b.Remove(3)
	if !b.Empty() {
		t.Fatal("not empty after removals")
	}
	if _, ok := b.PopMax(); ok {
		t.Fatal("popMax succeeded on empty structure")
	}
}

func TestGainBucketsClamping(t *testing.T) {
	b := NewGainBuckets(4, 2)
	b.Insert(0, 100) // clamped to +2 bucket, but gain value retained
	b.Insert(1, -77)
	if b.gain[0] != 100 {
		t.Fatalf("stored gain = %d, want 100", b.gain[0])
	}
	v, _ := b.PopMax()
	if v != 0 {
		t.Fatalf("popMax = %d, want 0", v)
	}
	v, _ = b.PopMax()
	if v != 1 {
		t.Fatalf("popMax = %d, want 1", v)
	}
}

func TestGainBucketsReset(t *testing.T) {
	b := NewGainBuckets(4, 3)
	b.Insert(0, 1)
	b.Insert(1, 2)
	b.Reset()
	if !b.Empty() || b.Contains(0) {
		t.Fatal("reset did not clear")
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	for _, p := range append(allPolicies(), NoRefine) {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip failed for %v", p)
		}
	}
	if _, err := ParsePolicy("zzz"); err == nil {
		t.Fatal("ParsePolicy accepted bogus input")
	}
}

// Property: on random graphs with random partitions, every policy yields a
// cut no worse than the start, consistent incremental state, and balance
// within tolerance when starting balanced.
func TestRefinePropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := matgen.FE3DTetra(5, 5, 4, seed)
		n := g.NumVertices()
		where := make([]int, n)
		for i := n / 2; i < n; i++ {
			where[i] = 1
		}
		for _, p := range allPolicies() {
			bis := NewBisection(g, append([]int(nil), where...))
			before := bis.Cut
			after := Refine(bis, p, Options{})
			if after > before || bis.Verify() != nil {
				return false
			}
			if ComputeCut(g, bis.Where) != after {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestRefineWithTargetWeights(t *testing.T) {
	// Ask for a 1:3 split and verify refinement honors it.
	g := matgen.Grid2D(20, 20)
	n := g.NumVertices()
	where := make([]int, n)
	for i := n / 4; i < n; i++ {
		where[i] = 1
	}
	bis := NewBisection(g, where)
	tp := [2]int{n / 4, 3 * n / 4}
	Refine(bis, BKLR, Options{TargetPwgt: tp, Ubfactor: 1.1})
	if bis.Pwgt[0] > tp[0]*12/10 || bis.Pwgt[1] > tp[1]*12/10 {
		t.Fatalf("pwgt %v strays from target %v", bis.Pwgt, tp)
	}
}
