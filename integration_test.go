package mlpart_test

import (
	"testing"

	"mlpart"
	"mlpart/internal/matgen"
	"mlpart/internal/mmd"
	"mlpart/internal/multilevel"
	"mlpart/internal/ordering"
	"mlpart/internal/sparse"
)

// TestFullPipelineAllWorkloads runs the complete partition + ordering
// pipeline on every Table 1 workload class at small scale, checking the
// structural invariants everywhere. This is the end-to-end safety net for
// the whole repository.
func TestFullPipelineAllWorkloads(t *testing.T) {
	for _, name := range matgen.AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := mlpart.GenerateWorkload(name, 0.04)
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumVertices()
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}

			// 8-way partition.
			res, err := mlpart.Partition(g, 8, &mlpart.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.EdgeCut != mlpart.EdgeCut(g, res.Where) {
				t.Error("cut inconsistent")
			}
			report, err := mlpart.EvaluatePartition(g, res.Where, 8)
			if err != nil {
				t.Fatal(err)
			}
			if report.EmptyParts > 0 {
				t.Errorf("empty parts: %s", report)
			}
			// Balance within tolerance (irregular graphs get extra slack
			// from the max-vertex-weight allowance at coarse levels).
			if report.Balance > 1.5 {
				t.Errorf("balance %v", report.Balance)
			}

			// MLND ordering + symbolic factorization.
			perm, iperm, err := mlpart.NestedDissection(g, &mlpart.Options{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range perm {
				if iperm[v] != i {
					t.Fatal("iperm wrong")
				}
			}
			st, err := mlpart.AnalyzeOrdering(g, perm)
			if err != nil {
				t.Fatal(err)
			}
			if st.FactorNonzeros < int64(n) {
				t.Error("factor impossibly small")
			}
		})
	}
}

// TestOrderingConsistencyAcrossAlgorithms checks the three orderings are
// all valid permutations producing consistent analyses on one graph.
func TestOrderingConsistencyAcrossAlgorithms(t *testing.T) {
	g, err := mlpart.GenerateWorkload("COPT", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	seeded := ordering.Options{ML: multilevel.Options{Seed: 1}}
	mlndPerm, err := ordering.MLND(g, seeded)
	if err != nil {
		t.Fatal(err)
	}
	sndPerm, err := ordering.SND(g, seeded)
	if err != nil {
		t.Fatal(err)
	}
	perms := map[string][]int{
		"MLND": mlndPerm,
		"SND":  sndPerm,
		"RCM":  ordering.RCM(g),
		"MMD":  mmd.Order(g),
	}
	for name, perm := range perms {
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("%s: not a permutation", name)
			}
			seen[v] = true
		}
		if _, err := sparse.Analyze(g, perm); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// RCM minimizes bandwidth, not fill; it must at least beat identity on
	// bandwidth while MMD/MLND beat it on flops.
	if bw := ordering.Bandwidth(g, perms["RCM"]); bw >= n/2 {
		t.Errorf("RCM bandwidth %d of %d", bw, n)
	}
	rcm, _ := sparse.Analyze(g, perms["RCM"])
	mlnd, _ := sparse.Analyze(g, perms["MLND"])
	if mlnd.Flops > rcm.Flops {
		t.Errorf("MLND flops %.3g worse than RCM %.3g on a 3D mesh", mlnd.Flops, rcm.Flops)
	}
}
