package multilevel

import (
	"slices"
	"testing"

	"mlpart/internal/graph"
	"mlpart/internal/matgen"
	"mlpart/internal/refine"
)

func TestPartitionKWayBasics(t *testing.T) {
	g := matgen.Mesh2DTri(30, 30, 0.02, 1)
	for _, k := range []int{2, 8, 32} {
		res, err := PartitionKWay(g, k, Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := refine.ComputeCut(g, res.Where); got != res.EdgeCut {
			t.Fatalf("k=%d: cut %d, recomputed %d", k, res.EdgeCut, got)
		}
		tot := 0
		for p, w := range res.PartWeights {
			if w <= 0 {
				t.Errorf("k=%d: part %d weight %d", k, p, w)
			}
			tot += w
		}
		if tot != g.TotalVertexWeight() {
			t.Fatalf("k=%d: weights sum to %d", k, tot)
		}
		if bal := res.Balance(); bal > 1.4 {
			t.Errorf("k=%d: balance %v", k, bal)
		}
	}
}

func TestPartitionKWayK1(t *testing.T) {
	g := matgen.Grid2D(4, 4)
	res, err := PartitionKWay(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut != 0 || res.PartWeights[0] != 16 {
		t.Fatalf("k=1: %+v", res)
	}
}

func TestPartitionKWayErrors(t *testing.T) {
	g := matgen.Grid2D(3, 3)
	if _, err := PartitionKWay(g, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := PartitionKWay(g, 99, Options{}); err == nil {
		t.Error("k > n accepted")
	}
}

func TestPartitionKWayQualityNearRecursive(t *testing.T) {
	// Direct k-way should be within ~25% of recursive bisection quality on
	// aggregate (in exchange for a single coarsening pass).
	var direct, recursive int
	for seed := int64(0); seed < 4; seed++ {
		g := matgen.FE3DTetra(9, 9, 9, seed)
		d, err := PartitionKWay(g, 16, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		r, err := Partition(g, 16, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		direct += d.EdgeCut
		recursive += r.EdgeCut
	}
	if float64(direct) > 1.25*float64(recursive) {
		t.Errorf("direct k-way total %d vs recursive %d (> 1.25x)", direct, recursive)
	}
}

func TestPartitionKWayFasterForLargeK(t *testing.T) {
	// The whole point: one hierarchy instead of k-1. Compare coarsening
	// work via stats rather than flaky wall-clock.
	g := matgen.Mesh2DTri(50, 50, 0.01, 5)
	d, err := PartitionKWay(g, 64, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Partition(g, 64, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if d.Stats.CoarsenTime >= r.Stats.CoarsenTime {
		t.Errorf("direct k-way coarsening %v not below recursive %v",
			d.Stats.CoarsenTime, r.Stats.CoarsenTime)
	}
}

func TestPartitionKWayDeterministic(t *testing.T) {
	g := matgen.FE3DTetra(7, 7, 7, 7)
	a, _ := PartitionKWay(g, 16, Options{Seed: 8})
	b, _ := PartitionKWay(g, 16, Options{Seed: 8})
	for v := range a.Where {
		if a.Where[v] != b.Where[v] {
			t.Fatal("PartitionKWay not deterministic")
		}
	}
}

// TestDirectKWayDefaultIsBKWAY pins that every k-way refinement runs the
// one boundary kernel: the default refinement and an explicit BKWAY give
// bit-identical partitions on the direct k-way path and on the KWayRefine
// pass after recursive bisection, for every preset, on a mesh and on a
// power-law graph.
func TestDirectKWayDefaultIsBKWAY(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"mesh", matgen.FE3DTetra(10, 10, 10, 3)},
		{"soc", matgen.SocialNetwork(4096, 4, 1)},
	}
	paths := []struct {
		name string
		run  func(*graph.Graph, Options) (*Result, error)
	}{
		{"PartitionKWay", func(g *graph.Graph, o Options) (*Result, error) { return PartitionKWay(g, 16, o) }},
		{"Partition+KWayRefine", func(g *graph.Graph, o Options) (*Result, error) {
			o.KWayRefine = true
			return Partition(g, 16, o)
		}},
	}
	for _, gc := range graphs {
		for _, pc := range paths {
			for _, preset := range []Preset{PresetFast, PresetEco, PresetStrong} {
				opts := Options{Seed: 4, Preset: preset}
				def, err := pc.run(gc.g, opts)
				if err != nil {
					t.Fatal(err)
				}
				bk, err := pc.run(gc.g, opts.WithRefinement(refine.BKWAY))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(def.Where, bk.Where) {
					t.Errorf("%s/%s/%s: default cut %d, BKWAY cut %d: partitions differ",
						gc.name, pc.name, preset, def.EdgeCut, bk.EdgeCut)
				}
			}
		}
	}
}
