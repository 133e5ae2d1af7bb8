// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablation benches for the design choices called out in DESIGN.md.
// Each benchmark reports the relevant quality metric (edge-cut or opcount)
// alongside time, so `go test -bench=.` reproduces both axes the paper
// compares. cmd/mlbench prints the same data in the paper's table layouts.
package mlpart_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"mlpart"
	"mlpart/internal/chaco"
	"mlpart/internal/coarsen"
	"mlpart/internal/experiments"
	"mlpart/internal/graph"
	"mlpart/internal/matgen"
	"mlpart/internal/mmd"
	"mlpart/internal/multilevel"
	"mlpart/internal/ordering"
	"mlpart/internal/refine"
	"mlpart/internal/sparse"
	"mlpart/internal/spectral"
	"mlpart/internal/trace"
)

// benchScale keeps the benchmark workloads small enough that the full
// suite completes in minutes; cmd/mlbench runs the full-size sweeps.
const benchScale = 0.08

// benchGraph is the representative 3D FE workload used by the per-phase
// benchmarks (the paper's BRACK2 class).
func benchGraph(b *testing.B) *matgen.Named {
	b.Helper()
	w, err := matgen.Generate("BRCK", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return &w
}

// BenchmarkTable1Suite measures generating the full Table 1 workload suite.
func BenchmarkTable1Suite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := matgen.Suite(matgen.AllNames(), benchScale)
		if len(ws) != len(matgen.AllNames()) {
			b.Fatal("suite incomplete")
		}
	}
}

// BenchmarkTable2Matching reproduces Table 2: a 32-way partition per
// matching scheme (GGGP init, BKLGR refinement), reporting the edge-cut.
func BenchmarkTable2Matching(b *testing.B) {
	b.ReportAllocs()
	w := benchGraph(b)
	for _, s := range experiments.TableSchemes() {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			var cut int
			for i := 0; i < b.N; i++ {
				res, err := multilevel.Partition(w.Graph, 32,
					multilevel.Options{Seed: 1}.WithMatching(s))
				if err != nil {
					b.Fatal(err)
				}
				cut = res.EdgeCut
			}
			b.ReportMetric(float64(cut), "edgecut")
		})
	}
}

// BenchmarkTable3NoRefine reproduces Table 3: the same sweep with
// refinement disabled, isolating coarsening quality.
func BenchmarkTable3NoRefine(b *testing.B) {
	b.ReportAllocs()
	w := benchGraph(b)
	for _, s := range experiments.TableSchemes() {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			var cut int
			for i := 0; i < b.N; i++ {
				res, err := multilevel.Partition(w.Graph, 32,
					multilevel.Options{Seed: 1}.
						WithMatching(s).
						WithRefinement(refine.NoRefine))
				if err != nil {
					b.Fatal(err)
				}
				cut = res.EdgeCut
			}
			b.ReportMetric(float64(cut), "edgecut")
		})
	}
}

// BenchmarkTable4Refine reproduces Table 4: a 32-way partition per
// refinement policy (HEM coarsening, GGGP init).
func BenchmarkTable4Refine(b *testing.B) {
	b.ReportAllocs()
	w := benchGraph(b)
	for _, p := range []refine.Policy{refine.GR, refine.KLR, refine.BGR, refine.BKLR, refine.BKLGR} {
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			var cut int
			for i := 0; i < b.N; i++ {
				res, err := multilevel.Partition(w.Graph, 32,
					multilevel.Options{Seed: 1}.WithRefinement(p))
				if err != nil {
					b.Fatal(err)
				}
				cut = res.EdgeCut
			}
			b.ReportMetric(float64(cut), "edgecut")
		})
	}
}

// levelTracer records hierarchy-level trace events so the coarsening
// benchmark can report per-level shrink ratios; goroutine-safe because
// parallel phases may emit concurrently.
type levelTracer struct {
	mu    sync.Mutex
	verts []int
}

func (lt *levelTracer) Event(e trace.Event) {
	if e.Kind != trace.KindLevel {
		return
	}
	lt.mu.Lock()
	lt.verts = append(lt.verts, e.Vertices)
	lt.mu.Unlock()
}

// BenchmarkCoarseningFamilies compares the two coarsening families at
// k=32 on the two workload classes they target: HEM (matching) against
// GCLP (aggregation) on a 3D finite-element mesh and on a power-law
// social graph. Each run reports the edge-cut, the final imbalance, the
// hierarchy depth and the geometric-mean per-level shrink ratio, and logs
// the raw per-level vertex counts — the mesh rows show matching is
// already near its 2x-per-level optimum there, the social rows show
// label-propagation collapsing hubs whole where pairwise matching stalls.
func BenchmarkCoarseningFamilies(b *testing.B) {
	workloads := []struct {
		name string
		g    *graph.Graph
	}{
		{"FE3D", matgen.FE3DTetra(12, 12, 12, 7)},
		{"SOC", matgen.SocialNetwork(16384, 4, 23)},
	}
	for _, w := range workloads {
		for _, s := range []coarsen.Scheme{coarsen.HEM, coarsen.GCLP} {
			b.Run(w.name+"/"+s.String(), func(b *testing.B) {
				b.ReportAllocs()
				var cut int
				var imbal float64
				var levels []int
				for i := 0; i < b.N; i++ {
					lt := &levelTracer{}
					res, err := multilevel.PartitionKWay(w.g, 32,
						multilevel.Options{Seed: 1, Tracer: lt}.WithMatching(s))
					if err != nil {
						b.Fatal(err)
					}
					cut = res.EdgeCut
					maxw, total := 0, 0
					for _, pw := range res.PartWeights {
						total += pw
						if pw > maxw {
							maxw = pw
						}
					}
					imbal = float64(maxw) * float64(len(res.PartWeights)) / float64(total)
					levels = lt.verts
				}
				b.ReportMetric(float64(cut), "edgecut")
				b.ReportMetric(imbal, "imbalance")
				if n := len(levels); n > 1 {
					b.ReportMetric(float64(n-1), "levels")
					ratio := math.Pow(float64(levels[0])/float64(levels[n-1]), 1/float64(n-1))
					b.ReportMetric(ratio, "shrink/level")
					b.Logf("%s/%s per-level vertices: %v", w.name, s, levels)
				}
			})
		}
	}
}

// figureBench runs our algorithm and one baseline to a 64-way partition,
// reporting both cuts — the data behind one bar of Figures 1-3.
func figureBench(b *testing.B, baseline experiments.Baseline) {
	w := benchGraph(b)
	const k = 64
	b.Run("Ours", func(b *testing.B) {
		b.ReportAllocs()
		var cut int
		for i := 0; i < b.N; i++ {
			res, err := multilevel.Partition(w.Graph, k, multilevel.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			cut = res.EdgeCut
		}
		b.ReportMetric(float64(cut), "edgecut")
	})
	b.Run(baseline.String(), func(b *testing.B) {
		b.ReportAllocs()
		var cut int
		for i := 0; i < b.N; i++ {
			var where []int
			switch baseline {
			case experiments.MSB:
				where = spectral.MSBPartition(w.Graph, k, spectral.MSBOptions{}, rand.New(rand.NewSource(1)))
			case experiments.MSBKL:
				where = spectral.MSBPartition(w.Graph, k, spectral.MSBOptions{KL: true}, rand.New(rand.NewSource(1)))
			case experiments.ChacoML:
				where = chaco.Partition(w.Graph, k, chaco.Options{}, 1)
			}
			cut = refine.ComputeCut(w.Graph, where)
		}
		b.ReportMetric(float64(cut), "edgecut")
	})
}

// BenchmarkFigure1VsMSB reproduces Figure 1: ours vs multilevel spectral
// bisection (quality via the edgecut metric, speed via ns/op — Figure 4's
// axis for the same pair).
func BenchmarkFigure1VsMSB(b *testing.B) { figureBench(b, experiments.MSB) }

// BenchmarkFigure2VsMSBKL reproduces Figure 2: ours vs MSB-KL.
func BenchmarkFigure2VsMSBKL(b *testing.B) { figureBench(b, experiments.MSBKL) }

// BenchmarkFigure3VsChacoML reproduces Figure 3: ours vs Chaco-ML.
func BenchmarkFigure3VsChacoML(b *testing.B) { figureBench(b, experiments.ChacoML) }

// BenchmarkFigure4Runtime reproduces Figure 4 directly: the wall-clock of
// each partitioner on the same 64-way problem; relative ns/op values are
// the figure's bars.
func BenchmarkFigure4Runtime(b *testing.B) {
	b.ReportAllocs()
	w := benchGraph(b)
	const k = 64
	b.Run("Ours", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := multilevel.Partition(w.Graph, k, multilevel.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Best-of-4 bisections, serial vs parallel trials: both pick the same
	// cuts (the trials have order-independent derived seeds), so the pair
	// measures the wall-clock speedup of concurrent NCuts alone.
	b.Run("OursNCuts4Serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := multilevel.Partition(w.Graph, k, multilevel.Options{Seed: 1, NCuts: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("OursNCuts4Parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := multilevel.Partition(w.Graph, k, multilevel.Options{Seed: 1, NCuts: 4, Parallel: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ChacoML", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			chaco.Partition(w.Graph, k, chaco.Options{}, 1)
		}
	})
	b.Run("MSB", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spectral.MSBPartition(w.Graph, k, spectral.MSBOptions{}, rand.New(rand.NewSource(1)))
		}
	})
	b.Run("MSBKL", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spectral.MSBPartition(w.Graph, k, spectral.MSBOptions{KL: true}, rand.New(rand.NewSource(1)))
		}
	})
}

// BenchmarkFigure5Ordering reproduces Figure 5: the three fill-reducing
// orderings of the same stiffness matrix, reporting the factorization
// opcount each produces.
func BenchmarkFigure5Ordering(b *testing.B) {
	b.ReportAllocs()
	w, err := matgen.Generate("BC30", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B, perm []int) {
		a, err := sparse.Analyze(w.Graph, perm)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Flops, "opcount")
	}
	b.Run("MLND", func(b *testing.B) {
		b.ReportAllocs()
		var perm []int
		for i := 0; i < b.N; i++ {
			if perm, err = ordering.MLND(w.Graph, ordering.Options{ML: multilevel.Options{Seed: 1}}); err != nil {
				b.Fatal(err)
			}
		}
		report(b, perm)
	})
	b.Run("MMD", func(b *testing.B) {
		b.ReportAllocs()
		var perm []int
		for i := 0; i < b.N; i++ {
			perm = mmd.Order(w.Graph)
		}
		report(b, perm)
	})
	b.Run("SND", func(b *testing.B) {
		b.ReportAllocs()
		var perm []int
		for i := 0; i < b.N; i++ {
			if perm, err = ordering.SND(w.Graph, ordering.Options{ML: multilevel.Options{Seed: 1}}); err != nil {
				b.Fatal(err)
			}
		}
		report(b, perm)
	})
}

// BenchmarkAblationMatching isolates coarsening: HEM vs RM at fixed
// (BKLGR) refinement on a bisection, the comparison behind the paper's
// choice of HEM.
func BenchmarkAblationMatching(b *testing.B) {
	b.ReportAllocs()
	w := benchGraph(b)
	for _, s := range []coarsen.Scheme{coarsen.RM, coarsen.HEM} {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			var cut int
			for i := 0; i < b.N; i++ {
				bis, _, _ := multilevel.Bisect(w.Graph, 0,
					multilevel.Options{Seed: 1}.WithMatching(s),
					rand.New(rand.NewSource(1)), nil)
				cut = bis.Cut
			}
			b.ReportMetric(float64(cut), "edgecut")
		})
	}
}

// BenchmarkAblationBoundary isolates the boundary optimization: KLR vs
// BKLR at fixed HEM coarsening.
func BenchmarkAblationBoundary(b *testing.B) {
	b.ReportAllocs()
	w := benchGraph(b)
	for _, p := range []refine.Policy{refine.KLR, refine.BKLR} {
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			var cut int
			for i := 0; i < b.N; i++ {
				bis, _, _ := multilevel.Bisect(w.Graph, 0,
					multilevel.Options{Seed: 1}.WithRefinement(p),
					rand.New(rand.NewSource(1)), nil)
				cut = bis.Cut
			}
			b.ReportMetric(float64(cut), "edgecut")
		})
	}
}

// BenchmarkAblationTrials varies the GGGP trial count (the paper uses 5).
func BenchmarkAblationTrials(b *testing.B) {
	b.ReportAllocs()
	w := benchGraph(b)
	for _, trials := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("trials=%d", trials), func(b *testing.B) {
			b.ReportAllocs()
			var cut int
			for i := 0; i < b.N; i++ {
				res, err := multilevel.Partition(w.Graph, 32,
					multilevel.Options{Seed: 1, InitTrials: trials})
				if err != nil {
					b.Fatal(err)
				}
				cut = res.EdgeCut
			}
			b.ReportMetric(float64(cut), "edgecut")
		})
	}
}

// BenchmarkAblationCoarsestSize varies where coarsening stops (the paper
// coarsens to ~100 vertices).
func BenchmarkAblationCoarsestSize(b *testing.B) {
	b.ReportAllocs()
	w := benchGraph(b)
	for _, ct := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("coarsenTo=%d", ct), func(b *testing.B) {
			b.ReportAllocs()
			var cut int
			for i := 0; i < b.N; i++ {
				res, err := multilevel.Partition(w.Graph, 32,
					multilevel.Options{Seed: 1, CoarsenTo: ct})
				if err != nil {
					b.Fatal(err)
				}
				cut = res.EdgeCut
			}
			b.ReportMetric(float64(cut), "edgecut")
		})
	}
}

// BenchmarkAblationStopRule varies the refinement stop window x (the paper
// uses x = 50).
func BenchmarkAblationStopRule(b *testing.B) {
	b.ReportAllocs()
	w := benchGraph(b)
	for _, x := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("x=%d", x), func(b *testing.B) {
			b.ReportAllocs()
			var cut int
			for i := 0; i < b.N; i++ {
				res, err := multilevel.Partition(w.Graph, 32,
					multilevel.Options{Seed: 1, StopWindow: x})
				if err != nil {
					b.Fatal(err)
				}
				cut = res.EdgeCut
			}
			b.ReportMetric(float64(cut), "edgecut")
		})
	}
}

// BenchmarkAblationParallelKway compares sequential and parallel recursive
// k-way decomposition (identical results, different wall-clock).
func BenchmarkAblationParallelKway(b *testing.B) {
	b.ReportAllocs()
	w, err := matgen.Generate("WAVE", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []bool{false, true} {
		name := "sequential"
		if par {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := multilevel.Partition(w.Graph, 64,
					multilevel.Options{Seed: 1, Parallel: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoundaryKWay is the boundary-refinement acceptance benchmark:
// a 32-way partition of a ~125k-vertex 3D FE mesh, comparing the recursive
// KLR baseline against the direct k-way scheme with the boundary BKWAY
// engine, serial and with parallel propose passes. The parallel and serial
// BKWAY rows produce identical partitions (identical edgecut metric); the
// ns/op ratio between RecursiveKLR and DirectBKWAYParallel is the headline
// speedup in docs/PERFORMANCE.md.
func BenchmarkBoundaryKWay(b *testing.B) {
	g := matgen.FE3DTetra(50, 50, 50, 3)
	const k = 32
	run := func(b *testing.B, f func() (*multilevel.Result, error)) {
		b.ReportAllocs()
		var cut int
		for i := 0; i < b.N; i++ {
			res, err := f()
			if err != nil {
				b.Fatal(err)
			}
			cut = res.EdgeCut
		}
		b.ReportMetric(float64(cut), "edgecut")
	}
	b.Run("RecursiveKLR", func(b *testing.B) {
		run(b, func() (*multilevel.Result, error) {
			return multilevel.Partition(g, k,
				multilevel.Options{Seed: 1}.WithRefinement(refine.KLR))
		})
	})
	b.Run("DirectBKWAYSerial", func(b *testing.B) {
		run(b, func() (*multilevel.Result, error) {
			return multilevel.PartitionKWay(g, k,
				multilevel.Options{Seed: 1}.WithRefinement(refine.BKWAY))
		})
	})
	b.Run("DirectBKWAYParallel", func(b *testing.B) {
		run(b, func() (*multilevel.Result, error) {
			return multilevel.PartitionKWay(g, k,
				multilevel.Options{Seed: 1, RefineWorkers: runtime.NumCPU()}.
					WithRefinement(refine.BKWAY))
		})
	})
}

// BenchmarkCycles is the iterated-multilevel acceptance benchmark: a
// 32-way partition of the same ~125k-vertex 3D FE mesh under each quality
// preset. Fast is one V-cycle; eco and strong re-coarsen respecting the
// incumbent partition and re-refine (2 and 4 cycles). The edgecut metric
// must fall monotonically fast -> eco -> strong while ns/op stays within
// roughly the cycle-count multiple of fast — extra cycles skip initial
// partitioning, so they are cheaper than the first. The fast/strong
// edgecut and ns/op pairs feed the preset table in docs/PERFORMANCE.md.
func BenchmarkCycles(b *testing.B) {
	g := matgen.FE3DTetra(50, 50, 50, 3)
	const k = 32
	for _, tc := range []struct {
		name   string
		preset multilevel.Preset
	}{
		{"Fast", multilevel.PresetFast},
		{"Eco", multilevel.PresetEco},
		{"Strong", multilevel.PresetStrong},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var cut int
			for i := 0; i < b.N; i++ {
				res, err := multilevel.PartitionKWay(g, k,
					multilevel.Options{Seed: 1, Preset: tc.preset}.
						WithRefinement(refine.BKWAY))
				if err != nil {
					b.Fatal(err)
				}
				cut = res.EdgeCut
			}
			b.ReportMetric(float64(cut), "edgecut")
		})
	}
}

// BenchmarkIngest is the zero-copy ingest acceptance benchmark: the same
// ~125k-vertex 3D FE mesh decoded from each wire encoding. JSON and METIS
// text re-tokenize every number; the binary CSR decode aliases the payload
// buffer (one fused validation pass, ≤1 graph-sized allocation), and the
// mmap variant adds only the mapping syscall. The JSON/Binary ns/op ratio
// is the headline number in docs/PERFORMANCE.md's ingest table.
func BenchmarkIngest(b *testing.B) {
	g := matgen.FE3DTetra(50, 50, 50, 3)
	wantFP := g.Fingerprint()

	jsonBody, err := json.Marshal(mlpart.NewWireGraph(g))
	if err != nil {
		b.Fatal(err)
	}
	var metisBuf bytes.Buffer
	if err := mlpart.WriteGraph(&metisBuf, g); err != nil {
		b.Fatal(err)
	}
	var binBuf bytes.Buffer
	if err := mlpart.WriteBinaryGraph(&binBuf, g); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "g.csrb")
	if err := os.WriteFile(path, binBuf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}

	check := func(b *testing.B, got *mlpart.Graph) {
		b.Helper()
		if got == nil || got.Fingerprint() != wantFP {
			b.Fatal("decoded graph does not match the source")
		}
	}

	b.Run("JSON", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(jsonBody)))
		var got *mlpart.Graph
		for i := 0; i < b.N; i++ {
			var wg mlpart.WireGraph
			if err := json.Unmarshal(jsonBody, &wg); err != nil {
				b.Fatal(err)
			}
			if got, err = wg.ToGraph(); err != nil {
				b.Fatal(err)
			}
		}
		check(b, got)
	})
	b.Run("METIS", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(metisBuf.Len()))
		var got *mlpart.Graph
		for i := 0; i < b.N; i++ {
			if got, err = mlpart.ReadGraph(bytes.NewReader(metisBuf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		check(b, got)
	})
	b.Run("Binary", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(binBuf.Len()))
		var got *mlpart.Graph
		for i := 0; i < b.N; i++ {
			if got, err = mlpart.DecodeBinaryGraph(binBuf.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
		check(b, got)
	})
	b.Run("BinaryMmap", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(binBuf.Len()))
		for i := 0; i < b.N; i++ {
			got, closer, err := mlpart.OpenBinaryGraph(path)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				check(b, got)
			}
			if err := closer.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRelabel prices the Ordering preprocessing option: computing and
// applying each relabeling permutation on the 125k-vertex bench mesh.
func BenchmarkRelabel(b *testing.B) {
	g := matgen.FE3DTetra(50, 50, 50, 3)
	for _, ord := range []string{mlpart.OrderingDegree, mlpart.OrderingBFSBlock} {
		b.Run(ord, func(b *testing.B) {
			b.ReportAllocs()
			var cut int
			for i := 0; i < b.N; i++ {
				res, err := mlpart.PartitionDirectKWay(g, 32, &mlpart.Options{
					Seed: 1, Refinement: mlpart.RefineBKWAY, Ordering: ord,
				})
				if err != nil {
					b.Fatal(err)
				}
				cut = res.EdgeCut
			}
			b.ReportMetric(float64(cut), "edgecut")
		})
	}
}

// BenchmarkAblationDirectKWay compares recursive bisection with the direct
// multilevel k-way extension at k=64 (quality via edgecut, speed via
// ns/op): the direct scheme coarsens once instead of k-1 times.
func BenchmarkAblationDirectKWay(b *testing.B) {
	b.ReportAllocs()
	w := benchGraph(b)
	const k = 64
	b.Run("recursive", func(b *testing.B) {
		b.ReportAllocs()
		var cut int
		for i := 0; i < b.N; i++ {
			res, err := multilevel.Partition(w.Graph, k, multilevel.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			cut = res.EdgeCut
		}
		b.ReportMetric(float64(cut), "edgecut")
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		var cut int
		for i := 0; i < b.N; i++ {
			res, err := multilevel.PartitionKWay(w.Graph, k, multilevel.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			cut = res.EdgeCut
		}
		b.ReportMetric(float64(cut), "edgecut")
	})
}
