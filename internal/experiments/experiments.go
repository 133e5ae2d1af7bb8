// Package experiments reproduces the evaluation of the paper: one driver
// per table and figure of §4, each running the same sweep the paper reports
// and returning typed rows. The drivers are shared by cmd/mlbench (which
// prints the paper-style tables) and by the repository's benchmark suite.
package experiments

import (
	"math/rand"
	"time"

	"mlpart/internal/chaco"
	"mlpart/internal/coarsen"
	"mlpart/internal/graph"
	"mlpart/internal/matgen"
	"mlpart/internal/multilevel"
	"mlpart/internal/refine"
	"mlpart/internal/spectral"
)

// Table2Names is the 12-matrix subset used in Tables 2, 3 and 4.
func Table2Names() []string {
	return []string{
		"BC31", "BC32", "BRCK", "CANT", "COPT", "CY93",
		"4ELT", "INPR", "ROTR", "SHEL", "TROL", "WAVE",
	}
}

// FigureNames is the 16-matrix subset used in Figures 1-4.
func FigureNames() []string {
	return []string{
		"BC30", "BC32", "BRCK", "CANT", "COPT", "CY93", "FINC", "LHR",
		"MAP", "MEM", "ROTR", "S38", "SHEL", "SHYY", "TROL", "WAVE",
	}
}

// OrderingNames is the 18-matrix subset of Figure 5, in the paper's order
// (increasing number of equations).
func OrderingNames() []string {
	return []string{
		"LS34", "BC28", "BSP10", "BC33", "BC29", "4ELT", "BC30", "BC31",
		"BC32", "CY93", "INPR", "CANT", "COPT", "BRCK", "ROTR", "WAVE",
		"SHEL", "TROL",
	}
}

// TableSchemes returns the coarsening schemes swept by Tables 2 and 3, in
// registry order. The sweep is derived from coarsen.AllSchemes() so a newly
// registered scheme (e.g. the GCLP aggregation scheme) shows up in mlbench
// without touching this package.
func TableSchemes() []coarsen.Scheme {
	var schemes []coarsen.Scheme
	for _, info := range coarsen.AllSchemes() {
		s, err := coarsen.ParseScheme(info.Name)
		if err != nil {
			panic(err)
		}
		schemes = append(schemes, s)
	}
	return schemes
}

// MatchingRow is one (graph, scheme) cell group of Table 2: the edge-cut of
// a 32-way partition plus the coarsening and uncoarsening times.
type MatchingRow struct {
	Graph  string
	Scheme coarsen.Scheme
	EC32   int
	CTime  time.Duration
	UTime  time.Duration
}

// Table2 reproduces Table 2: each matching scheme partitions each workload
// into k=32 parts with GGGP initial partitioning and BKLGR refinement.
func Table2(workloads []matgen.Named, k int, seed int64) []MatchingRow {
	var rows []MatchingRow
	for _, w := range workloads {
		for _, s := range TableSchemes() {
			opts := multilevel.Options{Seed: seed}.WithMatching(s)
			res, err := multilevel.Partition(w.Graph, k, opts)
			if err != nil {
				panic(err)
			}
			rows = append(rows, MatchingRow{
				Graph:  w.Name,
				Scheme: s,
				EC32:   res.EdgeCut,
				CTime:  res.Stats.CoarsenTime,
				UTime:  res.Stats.UncoarsenTime(),
			})
		}
	}
	return rows
}

// Table3 reproduces Table 3: the k-way edge-cut when no refinement is
// performed, isolating the quality of the coarsening itself.
func Table3(workloads []matgen.Named, k int, seed int64) []MatchingRow {
	var rows []MatchingRow
	for _, w := range workloads {
		for _, s := range TableSchemes() {
			opts := multilevel.Options{Seed: seed}.
				WithMatching(s).
				WithRefinement(refine.NoRefine)
			res, err := multilevel.Partition(w.Graph, k, opts)
			if err != nil {
				panic(err)
			}
			rows = append(rows, MatchingRow{Graph: w.Name, Scheme: s, EC32: res.EdgeCut})
		}
	}
	return rows
}

// RefineRow is one (graph, policy) cell group of Table 4.
type RefineRow struct {
	Graph  string
	Policy refine.Policy
	EC32   int
	RTime  time.Duration
}

// Table4 reproduces Table 4: each refinement policy partitions each
// workload into k parts with HEM coarsening and GGGP initial partitioning.
func Table4(workloads []matgen.Named, k int, seed int64) []RefineRow {
	var rows []RefineRow
	for _, w := range workloads {
		for _, p := range []refine.Policy{refine.GR, refine.KLR, refine.BGR, refine.BKLR, refine.BKLGR} {
			opts := multilevel.Options{Seed: seed}.WithRefinement(p)
			res, err := multilevel.Partition(w.Graph, k, opts)
			if err != nil {
				panic(err)
			}
			rows = append(rows, RefineRow{
				Graph:  w.Name,
				Policy: p,
				EC32:   res.EdgeCut,
				RTime:  res.Stats.RefineTime,
			})
		}
	}
	return rows
}

// Baseline identifies a comparison partitioner for Figures 1-4.
type Baseline int

const (
	// MSB is multilevel spectral bisection (Figure 1).
	MSB Baseline = iota
	// MSBKL is MSB followed by Kernighan-Lin refinement (Figure 2).
	MSBKL
	// ChacoML is the Chaco multilevel algorithm (Figure 3).
	ChacoML
)

// String returns the baseline's name as used in the paper.
func (b Baseline) String() string {
	switch b {
	case MSB:
		return "MSB"
	case MSBKL:
		return "MSB-KL"
	case ChacoML:
		return "Chaco-ML"
	}
	return "?"
}

// CutRatioRow is one bar of Figures 1-3: the ratio of our multilevel
// algorithm's k-way edge-cut to the baseline's on the same workload.
type CutRatioRow struct {
	Graph    string
	K        int
	OurCut   int
	BaseCut  int
	Ratio    float64 // OurCut / BaseCut; < 1 means we win
	Baseline Baseline
}

// baselinePartition runs the requested baseline to a k-way partition.
func baselinePartition(g *graph.Graph, k int, b Baseline, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	switch b {
	case MSB:
		return spectral.MSBPartition(g, k, spectral.MSBOptions{}, rng)
	case MSBKL:
		return spectral.MSBPartition(g, k, spectral.MSBOptions{KL: true}, rng)
	case ChacoML:
		return chaco.Partition(g, k, chaco.Options{}, seed)
	}
	panic("experiments: unknown baseline")
}

// CutRatios reproduces Figures 1-3: for every workload and every k in ks,
// the ratio of our edge-cut to the baseline's edge-cut.
func CutRatios(workloads []matgen.Named, ks []int, b Baseline, seed int64) []CutRatioRow {
	var rows []CutRatioRow
	for _, w := range workloads {
		for _, k := range ks {
			res, err := multilevel.Partition(w.Graph, k, multilevel.Options{Seed: seed})
			if err != nil {
				panic(err)
			}
			base := baselinePartition(w.Graph, k, b, seed)
			baseCut := refine.ComputeCut(w.Graph, base)
			ratio := 1.0
			if baseCut > 0 {
				ratio = float64(res.EdgeCut) / float64(baseCut)
			}
			rows = append(rows, CutRatioRow{
				Graph: w.Name, K: k,
				OurCut: res.EdgeCut, BaseCut: baseCut,
				Ratio: ratio, Baseline: b,
			})
		}
	}
	return rows
}

// RuntimeRow is one group of Figure 4: baseline run times relative to ours
// for a k-way partition.
type RuntimeRow struct {
	Graph     string
	K         int
	Our       time.Duration
	MSB       time.Duration
	MSBKL     time.Duration
	ChacoML   time.Duration
	RelMSB    float64
	RelMSBKL  float64
	RelChaco  float64
	OurCut    int
	MSBCut    int
	ChacoMCut int
}

// Runtimes reproduces Figure 4: wall-clock time of each baseline relative
// to our multilevel algorithm for a k-way partition of every workload.
func Runtimes(workloads []matgen.Named, k int, seed int64) []RuntimeRow {
	return RuntimesOpts(workloads, k, multilevel.Options{Seed: seed})
}

// RuntimesOpts is Runtimes with full control over the multilevel options of
// "our" algorithm (NCuts, Parallel, Preset, ...); the baselines always run
// their standard sequential configuration, so the time these options cost
// or save shows up directly in the relative columns.
func RuntimesOpts(workloads []matgen.Named, k int, opts multilevel.Options) []RuntimeRow {
	seed := opts.Seed
	var rows []RuntimeRow
	for _, w := range workloads {
		row := RuntimeRow{Graph: w.Name, K: k}

		t0 := time.Now()
		res, err := multilevel.Partition(w.Graph, k, opts)
		if err != nil {
			panic(err)
		}
		row.Our = time.Since(t0)
		row.OurCut = res.EdgeCut

		t0 = time.Now()
		msb := baselinePartition(w.Graph, k, MSB, seed)
		row.MSB = time.Since(t0)
		row.MSBCut = refine.ComputeCut(w.Graph, msb)

		t0 = time.Now()
		baselinePartition(w.Graph, k, MSBKL, seed)
		row.MSBKL = time.Since(t0)

		t0 = time.Now()
		cm := baselinePartition(w.Graph, k, ChacoML, seed)
		row.ChacoML = time.Since(t0)
		row.ChacoMCut = refine.ComputeCut(w.Graph, cm)

		our := row.Our.Seconds()
		if our > 0 {
			row.RelMSB = row.MSB.Seconds() / our
			row.RelMSBKL = row.MSBKL.Seconds() / our
			row.RelChaco = row.ChacoML.Seconds() / our
		}
		rows = append(rows, row)
	}
	return rows
}
