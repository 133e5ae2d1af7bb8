// Command mlbench regenerates every table and figure of the paper's
// evaluation (§4): Tables 1-4 and Figures 1-5. Each experiment runs the
// same sweep the paper reports, on the synthetic Table 1 workload suite,
// and prints the corresponding rows or data series.
//
// Usage:
//
//	mlbench -table 2            # matching-scheme comparison (Table 2)
//	mlbench -figure 5           # ordering comparison (Figure 5)
//	mlbench -levels 4ELT        # per-level V-cycle breakdown of one workload
//	mlbench -all                # everything
//	mlbench -all -scale 0.1     # faster, smaller workloads
//
// Absolute numbers depend on the host and the synthetic workloads; the
// quantities to compare with the paper are the relative ones (ratios,
// which scheme wins where). See EXPERIMENTS.md for the recorded shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mlpart/internal/experiments"
	"mlpart/internal/matgen"
	"mlpart/internal/multilevel"
)

func main() {
	table := flag.Int("table", 0, "reproduce Table N (1-4)")
	figure := flag.Int("figure", 0, "reproduce Figure N (1-5)")
	all := flag.Bool("all", false, "reproduce every table and figure")
	scale := flag.Float64("scale", 0.15, "workload scale (1.0 = laptop-sized; smaller is faster)")
	seed := flag.Int64("seed", 0, "random seed")
	k := flag.Int("k", 32, "parts for Tables 2-4")
	figK := flag.Int("figk", 64, "parts for Figure 4 run-time comparison")
	ncuts := flag.Int("ncuts", 0, "best-of-N bisections for Figure 4's \"ours\" (quality for time)")
	parallel := flag.Bool("parallel", false, "run Figure 4's \"ours\" with concurrent subgraphs and NCuts trials")
	preset := flag.String("preset", "", "quality preset for -levels and Figure 4's \"ours\": "+strings.Join(multilevel.PresetNames(), ", "))
	ablation := flag.Bool("ablation", false, "run the design-choice ablation sweeps of DESIGN.md")
	levels := flag.String("levels", "", "print the per-level V-cycle breakdown for the named workload")
	flag.Parse()

	if !*all && *table == 0 && *figure == 0 && !*ablation && *levels == "" {
		fmt.Fprintln(os.Stderr, "mlbench: pass -table N, -figure N, -levels NAME, -ablation or -all (see -h)")
		os.Exit(1)
	}

	if *levels != "" {
		banner(fmt.Sprintf("Per-level breakdown: %s, %d-way direct multilevel", *levels, *k))
		w, err := matgen.Generate(*levels, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlbench:", err)
			os.Exit(1)
		}
		rows, res, err := experiments.Levels(w.Graph, *k, multilevel.Options{Seed: *seed, Preset: mustPreset(*preset)})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlbench:", err)
			os.Exit(1)
		}
		experiments.PrintLevels(os.Stdout, rows)
		fmt.Printf("final edge-cut %d, balance %.3f\n", res.EdgeCut, res.Balance())
	}
	run := func(want int, sel *int) bool { return *all || *sel == want }

	if run(1, table) {
		banner("Table 1: workload suite (synthetic analogs)")
		experiments.PrintTable1(os.Stdout, matgen.Suite(matgen.AllNames(), *scale))
	}
	if run(2, table) {
		banner(fmt.Sprintf("Table 2: matching schemes, %d-way edge-cut and phase times", *k))
		ws := matgen.Suite(experiments.Table2Names(), *scale)
		experiments.PrintTable2(os.Stdout, experiments.Table2(ws, *k, *seed))
	}
	if run(3, table) {
		banner(fmt.Sprintf("Table 3: %d-way edge-cut with NO refinement", *k))
		ws := matgen.Suite(experiments.Table2Names(), *scale)
		experiments.PrintTable3(os.Stdout, experiments.Table3(ws, *k, *seed))
	}
	if run(4, table) {
		banner(fmt.Sprintf("Table 4: refinement policies, %d-way edge-cut and refine time", *k))
		ws := matgen.Suite(experiments.Table2Names(), *scale)
		experiments.PrintTable4(os.Stdout, experiments.Table4(ws, *k, *seed))
	}

	figKs := []int{64, 128, 256}
	if run(1, figure) {
		banner("Figure 1: our multilevel vs MSB (edge-cut ratio)")
		ws := matgen.Suite(experiments.FigureNames(), *scale)
		experiments.PrintCutRatios(os.Stdout, experiments.CutRatios(ws, figKs, experiments.MSB, *seed))
	}
	if run(2, figure) {
		banner("Figure 2: our multilevel vs MSB-KL (edge-cut ratio)")
		ws := matgen.Suite(experiments.FigureNames(), *scale)
		experiments.PrintCutRatios(os.Stdout, experiments.CutRatios(ws, figKs, experiments.MSBKL, *seed))
	}
	if run(3, figure) {
		banner("Figure 3: our multilevel vs Chaco-ML (edge-cut ratio)")
		ws := matgen.Suite(experiments.FigureNames(), *scale)
		experiments.PrintCutRatios(os.Stdout, experiments.CutRatios(ws, figKs, experiments.ChacoML, *seed))
	}
	if run(4, figure) {
		banner(fmt.Sprintf("Figure 4: run time relative to ours (%d-way)", *figK))
		ws := matgen.Suite(experiments.FigureNames(), *scale)
		opts := multilevel.Options{
			Seed:     *seed,
			NCuts:    *ncuts,
			Parallel: *parallel,
			Preset:   mustPreset(*preset),
		}
		experiments.PrintRuntimes(os.Stdout, experiments.RuntimesOpts(ws, *figK, opts))
	}
	if run(5, figure) {
		banner("Figure 5: ordering quality, MMD and SND relative to MLND")
		ws := matgen.Suite(experiments.OrderingNames(), *scale)
		experiments.PrintOrdering(os.Stdout, experiments.Ordering(ws, *seed))
	}
	if *all || *ablation {
		banner(fmt.Sprintf("Ablations: design-choice sweeps (%d-way)", *k))
		ws := matgen.Suite([]string{"BRCK", "4ELT"}, *scale)
		experiments.PrintAblations(os.Stdout, experiments.Ablations(ws, *k, *seed))
	}
}

// mustPreset parses the -preset flag value, exiting with a usage error on
// an unknown name.
func mustPreset(s string) multilevel.Preset {
	p, err := multilevel.ParsePreset(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlbench:", err)
		os.Exit(2)
	}
	return p
}

func banner(s string) {
	fmt.Printf("\n=== %s === (%s)\n", s, time.Now().Format(time.TimeOnly))
}
