package multilevel

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mlpart/internal/coarsen"
	"mlpart/internal/initpart"
	"mlpart/internal/matgen"
	"mlpart/internal/refine"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestBisectGridQuality(t *testing.T) {
	// 32x32 grid: optimal bisection cuts 32 edges; the multilevel scheme
	// should land within 2x of optimal.
	g := matgen.Grid2D(32, 32)
	b, stats, _ := Bisect(g, 0, Options{Seed: 1}, rng(1), nil)
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	if b.Cut > 64 {
		t.Errorf("cut = %d, want <= 64", b.Cut)
	}
	if bal := b.Balance(); bal > 1.06 {
		t.Errorf("balance = %v", bal)
	}
	if stats.Levels < 2 || stats.CoarsestN > 200 {
		t.Errorf("suspicious stats: %+v", stats)
	}
}

func TestBisectAllPhaseCombos(t *testing.T) {
	g := matgen.Mesh2DTri(20, 20, 0.02, 2)
	for _, m := range []coarsen.Scheme{coarsen.RM, coarsen.HEM, coarsen.LEM, coarsen.HCM} {
		for _, ip := range []initpart.Method{initpart.GGGP, initpart.GGP, initpart.SBP} {
			for _, rp := range []refine.Policy{refine.NoRefine, refine.GR, refine.KLR, refine.BGR, refine.BKLR, refine.BKLGR} {
				opts := Options{Seed: 3, InitMethod: ip}.WithMatching(m).WithRefinement(rp)
				b, _, _ := Bisect(g, 0, opts, rng(3), nil)
				if err := b.Verify(); err != nil {
					t.Fatalf("%v/%v/%v: %v", m, ip, rp, err)
				}
				if b.Cut <= 0 || b.Cut > g.NumEdges() {
					t.Fatalf("%v/%v/%v: cut = %d", m, ip, rp, b.Cut)
				}
			}
		}
	}
}

func TestRefinementImprovesOverNone(t *testing.T) {
	g := matgen.FE3DTetra(10, 10, 10, 4)
	none, _, _ := Bisect(g, 0, Options{Seed: 5}.WithRefinement(refine.NoRefine), rng(5), nil)
	bklgr, _, _ := Bisect(g, 0, Options{Seed: 5}.WithRefinement(refine.BKLGR), rng(5), nil)
	if bklgr.Cut >= none.Cut {
		t.Errorf("refined cut %d not better than unrefined %d", bklgr.Cut, none.Cut)
	}
}

func TestPartitionKWay(t *testing.T) {
	g := matgen.Mesh2DTri(30, 30, 0, 6)
	for _, k := range []int{2, 3, 7, 8, 32} {
		res, err := Partition(g, k, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got := refine.ComputeCut(g, res.Where); got != res.EdgeCut {
			t.Fatalf("k=%d: EdgeCut %d, recomputed %d", k, res.EdgeCut, got)
		}
		for v, p := range res.Where {
			if p < 0 || p >= k {
				t.Fatalf("k=%d: vertex %d in part %d", k, v, p)
			}
		}
		if bal := res.Balance(); bal > 1.35 {
			t.Errorf("k=%d: balance %v", k, bal)
		}
		if res.Stats.Bisections != k-1 {
			t.Errorf("k=%d: %d bisections, want %d", k, res.Stats.Bisections, k-1)
		}
	}
}

func TestPartitionK1(t *testing.T) {
	g := matgen.Grid2D(5, 5)
	res, err := Partition(g, 1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut != 0 {
		t.Fatalf("k=1 cut = %d", res.EdgeCut)
	}
	for _, p := range res.Where {
		if p != 0 {
			t.Fatal("k=1 assigned nonzero part")
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	g := matgen.Grid2D(3, 3)
	if _, err := Partition(g, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Partition(g, 100, Options{}); err == nil {
		t.Error("k > n accepted")
	}
}

func TestDeterminism(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 8)
	a, err := Partition(g, 8, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, 8, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Where {
		if a.Where[v] != b.Where[v] {
			t.Fatal("same seed produced different partitions")
		}
	}
	c, _ := Partition(g, 8, Options{Seed: 43})
	same := true
	for v := range a.Where {
		if a.Where[v] != c.Where[v] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical partitions (suspicious)")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := matgen.Mesh2DTri(60, 60, 0.01, 9)
	seq, err := Partition(g, 16, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Partition(g, 16, Options{Seed: 11, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq.EdgeCut != par.EdgeCut {
		t.Fatalf("parallel cut %d != sequential cut %d", par.EdgeCut, seq.EdgeCut)
	}
	for v := range seq.Where {
		if seq.Where[v] != par.Where[v] {
			t.Fatal("parallel and sequential partitions differ")
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	g := matgen.Grid2D(40, 40)
	res, err := Partition(g, 8, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.CoarsenTime <= 0 || s.UncoarsenTime() <= 0 {
		t.Errorf("timings not recorded: %+v", s)
	}
	if s.Levels == 0 || s.InitialCut == 0 {
		t.Errorf("stats not recorded: %+v", s)
	}
}

func TestKWayQualityVsNaive(t *testing.T) {
	// Multilevel 8-way must beat a striped partition on a mesh with holes.
	g := matgen.Mesh2DTri(40, 40, 0.03, 14)
	n := g.NumVertices()
	naive := make([]int, n)
	for v := 0; v < n; v++ {
		naive[v] = v * 8 / n
	}
	res, err := Partition(g, 8, Options{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut >= refine.ComputeCut(g, naive) {
		t.Errorf("multilevel cut %d no better than striping %d",
			res.EdgeCut, refine.ComputeCut(g, naive))
	}
}

func TestOptionExplicitZeroValues(t *testing.T) {
	// WithMatching(RM) and WithRefinement(NoRefine) must not be silently
	// replaced by the defaults.
	o := Options{}.WithMatching(coarsen.RM).WithRefinement(refine.NoRefine).withDefaults()
	if o.Matching != coarsen.RM {
		t.Error("explicit RM overridden")
	}
	if o.Refinement != refine.NoRefine {
		t.Error("explicit NoRefine overridden")
	}
	d := Options{}.withDefaults()
	if d.Matching != coarsen.HEM || d.Refinement != refine.BKLGR {
		t.Error("defaults wrong")
	}
}

// Property: partitions are complete (every vertex assigned), weights add
// up, and the cut is consistent, across random graphs and k.
func TestPartitionPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := matgen.FE3DTetra(6, 6, 5, seed)
		k := 2 + int(uint64(seed)%7)
		res, err := Partition(g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		tot := 0
		for _, w := range res.PartWeights {
			tot += w
		}
		if tot != g.TotalVertexWeight() {
			return false
		}
		return refine.ComputeCut(g, res.Where) == res.EdgeCut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestNCutsImproves(t *testing.T) {
	// Best-of-4 must be no worse than a single run with the same RNG
	// stream start, in aggregate over seeds.
	sum1, sum4 := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		g := matgen.Mesh2DTri(20, 20, 0.03, seed)
		a, _, _ := Bisect(g, 0, Options{Seed: seed}, rng(seed), nil)
		b, _, _ := Bisect(g, 0, Options{Seed: seed, NCuts: 4}, rng(seed), nil)
		sum1 += a.Cut
		sum4 += b.Cut
		if err := b.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	if sum4 > sum1 {
		t.Fatalf("NCuts=4 aggregate %d worse than single %d", sum4, sum1)
	}
}

func TestNCutsStatsAccumulate(t *testing.T) {
	g := matgen.Grid2D(20, 20)
	_, s1, _ := Bisect(g, 0, Options{Seed: 1}, rng(1), nil)
	_, s4, _ := Bisect(g, 0, Options{Seed: 1, NCuts: 4}, rng(1), nil)
	// Each of the four trials coarsens the same grid, so the level and
	// projection counts are summed four times over (deterministic counts,
	// unlike the wall-clock phase times).
	if s4.Levels != 4*s1.Levels || s4.Projections != 4*s1.Projections {
		t.Errorf("NCuts stats not accumulated: Levels %d -> %d, Projections %d -> %d, want 4x",
			s1.Levels, s4.Levels, s1.Projections, s4.Projections)
	}
	if s4.Bisections != 1 {
		t.Errorf("Bisections = %d, want 1", s4.Bisections)
	}
}

func TestPartitionWeighted(t *testing.T) {
	g := matgen.Mesh2DTri(30, 30, 0, 20)
	tot := g.TotalVertexWeight()
	fractions := []float64{0.5, 0.25, 0.125, 0.125}
	res, err := PartitionWeighted(g, fractions, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for p, f := range fractions {
		want := f * float64(tot)
		got := float64(res.PartWeights[p])
		if got < 0.85*want || got > 1.15*want {
			t.Errorf("part %d weight %v, want ~%v", p, got, want)
		}
	}
	if got := refine.ComputeCut(g, res.Where); got != res.EdgeCut {
		t.Fatalf("cut %d, recomputed %d", res.EdgeCut, got)
	}
}

func TestPartitionWeightedNormalizes(t *testing.T) {
	g := matgen.Grid2D(12, 12)
	a, err := PartitionWeighted(g, []float64{1, 1}, Options{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionWeighted(g, []float64{10, 10}, Options{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if a.EdgeCut != b.EdgeCut {
		t.Fatal("normalization broken")
	}
}

func TestPartitionWeightedErrors(t *testing.T) {
	g := matgen.Grid2D(3, 3)
	if _, err := PartitionWeighted(g, nil, Options{}); err == nil {
		t.Error("empty fractions accepted")
	}
	if _, err := PartitionWeighted(g, []float64{1, -1}, Options{}); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := PartitionWeighted(g, make([]float64, 99), Options{}); err == nil {
		t.Error("k > n accepted")
	}
}

func TestCoarsenWorkersOption(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 23)
	a, _, _ := Bisect(g, 0, Options{Seed: 24, CoarsenWorkers: 4}, rng(24), nil)
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	// The worker count never changes the result: every count, including
	// the serial default, gives the same bisection.
	b, _, _ := Bisect(g, 0, Options{Seed: 24, CoarsenWorkers: 2}, rng(24), nil)
	c, _, _ := Bisect(g, 0, Options{Seed: 24}, rng(24), nil)
	if a.Cut != b.Cut || a.Cut != c.Cut || !slices.Equal(a.Where, b.Where) || !slices.Equal(a.Where, c.Where) {
		t.Fatalf("worker count changed the result: cuts %d, %d, serial %d", a.Cut, b.Cut, c.Cut)
	}
}
