package multilevel

import (
	"slices"
	"testing"

	"mlpart/internal/graph"
	"mlpart/internal/matgen"
	"mlpart/internal/refine"
	"mlpart/internal/trace"
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
	// work — the edges of every graph a contraction reads — counted from
	// the trace rather than timed, so load on the machine cannot flip it.
	g := matgen.Mesh2DTri(50, 50, 0.01, 5)
	work := func(part func(*graph.Graph, int, Options) (*Result, error)) int {
		tr := &collectTracer{}
		if _, err := part(g, 64, Options{Seed: 6, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		return edgesContracted(tr.events)
	}
	d, r := work(PartitionKWay), work(Partition)
	if d == 0 || 2*d >= r {
		t.Errorf("direct k-way contracted %d edges, recursive %d: want a positive count below half", d, r)
	}
}

// edgesContracted sums, over the contractions a trace reports, the edges
// of the graph each one contracted: every KindLevel event past level 0
// credits the edges of the event before it, the finer level of the same
// hierarchy.
func edgesContracted(events []trace.Event) int {
	total, fine := 0, 0
	for _, e := range events {
		if e.Kind != trace.KindLevel {
			continue
		}
		if e.Level > 0 {
			total += fine
		}
		fine = e.Edges
	}
	return total
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
