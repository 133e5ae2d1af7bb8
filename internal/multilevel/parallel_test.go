package multilevel

import (
	"slices"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/graph"
	"mlpart/internal/matgen"
)

// TestNCutsParallelMatchesSerial pins the order-independence of the NCuts
// trials: because every trial derives its own seed, the parallel run must
// pick the exact bisection (cut AND vector) the sequential loop picks.
func TestNCutsParallelMatchesSerial(t *testing.T) {
	g := matgen.FE3DTetra(9, 9, 9, 2)
	serial, _, _ := Bisect(g, 0, Options{Seed: 7, NCuts: 4}, rng(7), nil)
	par, _, _ := Bisect(g, 0, Options{Seed: 7, NCuts: 4, Parallel: true}, rng(7), nil)
	if par.Cut != serial.Cut {
		t.Fatalf("parallel NCuts cut %d, serial %d", par.Cut, serial.Cut)
	}
	if !slices.Equal(par.Where, serial.Where) {
		t.Fatal("parallel NCuts picked a different bisection than serial")
	}
}

// TestNCutsParallelPartition is the same contract through the full k-way
// recursion, with the fan-out thresholds forced low so both parallel paths
// (recursion and NCuts trials) actually execute.
func TestNCutsParallelPartition(t *testing.T) {
	g := matgen.Mesh2DTri(25, 25, 0.02, 4)
	serial, err := Partition(g, 8, Options{Seed: 3, NCuts: 3})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Partition(g, 8, Options{
		Seed: 3, NCuts: 3, Parallel: true,
		ParallelDepth: 8, ParallelMinVertices: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if par.EdgeCut != serial.EdgeCut {
		t.Fatalf("parallel edge-cut %d, serial %d", par.EdgeCut, serial.EdgeCut)
	}
	if !slices.Equal(par.Where, serial.Where) {
		t.Fatal("parallel partition differs from serial")
	}
}

// TestWorkerKnobsNeverChangeResult pins the determinism contract of every
// worker knob: for each coarsening scheme and each entry point, a run with
// CoarsenWorkers, Parallel (with NCuts trials) or RefineWorkers returns the
// partition, cut, part weights and level count of the all-serial run.
func TestWorkerKnobsNeverChangeResult(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"mesh", matgen.Mesh2DTri(36, 40, 0.02, 5)},
		{"soc", matgen.SocialNetwork(2048, 4, 23)},
	}
	paths := []struct {
		name string
		opts Options
		run  func(*graph.Graph, int, Options) (*Result, error)
	}{
		{"partition", Options{}, Partition},
		{"partition+kway", Options{KWayRefine: true}, Partition},
		{"kway eco", Options{Preset: PresetEco}, PartitionKWay},
	}
	// Each knob turns the serial options o into a run that must agree with
	// them; ncuts sets the trial count on both sides and only fans it out
	// on one.
	knobs := []struct {
		name        string
		serial, par func(*Options)
	}{
		{"coarsen_workers 2", nil, func(o *Options) { o.CoarsenWorkers = 2 }},
		{"coarsen_workers 4", nil, func(o *Options) { o.CoarsenWorkers = 4 }},
		{"parallel ncuts 3", func(o *Options) { o.NCuts = 3 }, func(o *Options) {
			o.NCuts, o.Parallel, o.ParallelDepth, o.ParallelMinVertices = 3, true, 8, 1
		}},
		{"refine_workers 4", nil, func(o *Options) { o.RefineWorkers = 4 }},
	}
	for _, gc := range graphs {
		for _, scheme := range []coarsen.Scheme{coarsen.RM, coarsen.HEM, coarsen.LEM, coarsen.HCM, coarsen.GCLP} {
			for _, pc := range paths {
				base := pc.opts.WithMatching(scheme)
				base.Seed = 5
				plain, err := pc.run(gc.g, 8, base)
				if err != nil {
					t.Fatal(err)
				}
				for _, kc := range knobs {
					name := gc.name + "/" + scheme.String() + "/" + pc.name + "/" + kc.name
					want, serial, par := plain, base, base
					if kc.serial != nil {
						kc.serial(&serial)
						if want, err = pc.run(gc.g, 8, serial); err != nil {
							t.Fatalf("%s: serial: %v", name, err)
						}
					}
					kc.par(&par)
					got, err := pc.run(gc.g, 8, par)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got.EdgeCut != want.EdgeCut || !slices.Equal(got.Where, want.Where) ||
						!slices.Equal(got.PartWeights, want.PartWeights) || got.Stats.Levels != want.Stats.Levels {
						t.Errorf("%s: cut %d, %d levels; serial cut %d, %d levels (or where/part weights differ)",
							name, got.EdgeCut, got.Stats.Levels, want.EdgeCut, want.Stats.Levels)
					}
				}
			}
		}
	}
}

// TestValidateOptions: every malformed option combination is rejected with
// an error instead of recursing into nonsense.
func TestValidateOptions(t *testing.T) {
	g := matgen.Grid2D(8, 8) // 64 vertices
	cases := []struct {
		name string
		k    int
		opts Options
	}{
		{"k=0", 0, Options{}},
		{"k<0", -3, Options{}},
		{"k>n", 65, Options{}},
		{"NCuts<0", 2, Options{NCuts: -1}},
		{"CoarsenTo<0", 2, Options{CoarsenTo: -5}},
		{"InitTrials<0", 2, Options{InitTrials: -2}},
		{"CoarsenWorkers<0", 2, Options{CoarsenWorkers: -1}},
		{"Ubfactor<1", 2, Options{Ubfactor: 0.5}},
		{"ParallelDepth<0", 2, Options{ParallelDepth: -1}},
		{"ParallelMinVertices<0", 2, Options{ParallelMinVertices: -5}},
	}
	for _, tc := range cases {
		if _, err := Partition(g, tc.k, tc.opts); err == nil {
			t.Errorf("Partition %s: no error", tc.name)
		}
		if _, err := PartitionKWay(g, tc.k, tc.opts); err == nil {
			t.Errorf("PartitionKWay %s: no error", tc.name)
		}
		if tc.k >= 1 {
			fr := make([]float64, tc.k)
			for i := range fr {
				fr[i] = 1
			}
			if _, err := PartitionWeighted(g, fr, tc.opts); err == nil {
				t.Errorf("PartitionWeighted %s: no error", tc.name)
			}
		}
	}
}
