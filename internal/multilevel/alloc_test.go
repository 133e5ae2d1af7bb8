package multilevel

import (
	"runtime"
	"slices"
	"testing"

	"mlpart/internal/matgen"
	"mlpart/internal/metrics"
)

// allocPerCall returns the bytes f allocates per call, averaged over a few
// calls after one warm-up call.
func allocPerCall(f func()) uint64 {
	f()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestEngineAllocBound pins the bytes one engine call allocates. The call
// owns its workspace arena and touches no sync.Pool, so the figure is
// deterministic. Measured on a 20x20x20 FE3D mesh (8,000 vertices), k=8,
// go1.24 linux/amd64:
//
//	recursive:     20,136-22,330 KB with one pooled workspace per
//	               bisection, 5,483 KB with one arena per call, 4,563 KB
//	               when uncoarsening also releases each coarse level it
//	               has projected past (Hierarchy.Pop), 2,844 KB when
//	               returned pieces merge back and contraction trims its
//	               staging arrays in place (workspace.TrimInt);
//	direct + eco:  5,109-5,742 KB per bisection-pooled, 4,422 KB per call,
//	               4,202 KB with Pop, 3,537 KB merged and trimmed in place.
//
// The soc row is the soc-csrb-eco benchmark's engine call at 1/8 of its
// vertex count: an 8,192-vertex power-law graph, k=32, direct + eco. It
// measured 10,238 KB per call with an arena that never merged its pieces
// and 9,437 KB with one that does.
//
// Every bound sits 5% above the last figure, the alloc_mb_per_op
// tolerance of the benchmark, so an arena that does not merge returned
// pieces, or a contraction that copies its adjacency out of the staging
// arrays, fails all three rows.
//
// The fe3d-session shape has no row here: its boundary repair refines in
// the session's own arena, and internal/sessions pins it
// (TestApplyAllocBound).
func TestEngineAllocBound(t *testing.T) {
	g := matgen.FE3DTetra(20, 20, 20, 1)
	soc := matgen.SocialNetwork(8192, 4, 1)
	for _, tc := range []struct {
		name  string
		run   func() (*Result, error)
		bound uint64
	}{
		{"recursive", func() (*Result, error) { return Partition(g, 8, Options{Seed: 1}) }, 2990 << 10},
		{"direct+eco", func() (*Result, error) {
			return PartitionKWay(g, 8, Options{Seed: 1, Preset: PresetEco})
		}, 3715 << 10},
		{"soc direct+eco", func() (*Result, error) {
			return PartitionKWay(soc, 32, Options{Seed: 1, Preset: PresetEco})
		}, 9910 << 10},
	} {
		got := allocPerCall(func() {
			if _, err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d KB per call", tc.name, got>>10)
		if got > tc.bound {
			t.Errorf("%s: %d KB per call, bound %d KB", tc.name, got>>10, tc.bound>>10)
		}
	}
}

// TestResultsDoNotAliasArena checks that a finished call's result owns its
// memory: a later call, with parallel recursion and parallel NCuts trials
// drawing from arenas of their own, must leave it intact.
func TestResultsDoNotAliasArena(t *testing.T) {
	const k = 8
	ga := matgen.FE3DTetra(12, 12, 12, 1)
	gb := matgen.FE3DTetra(14, 14, 14, 2)
	for name, run := range map[string]func(Options) (*Result, error){
		"recursive": func(o Options) (*Result, error) { return Partition(ga, k, o) },
		"direct+eco": func(o Options) (*Result, error) {
			o.Preset = PresetEco
			return PartitionKWay(ga, k, o)
		},
	} {
		a, err := run(Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		where := slices.Clone(a.Where)
		if _, err := Partition(gb, k, Options{Seed: 4, Parallel: true, ParallelMinVertices: 100, NCuts: 3}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.Where, where) {
			t.Fatalf("%s: Where changed after a later call", name)
		}
		rep, err := metrics.Evaluate(ga, a.Where, k)
		if err != nil {
			t.Fatal(err)
		}
		if a.EdgeCut != rep.EdgeCut || !slices.Equal(a.PartWeights, rep.PartWeights) {
			t.Fatalf("%s: result says cut %d, weights %v; its Where evaluates to cut %d, weights %v",
				name, a.EdgeCut, a.PartWeights, rep.EdgeCut, rep.PartWeights)
		}
	}
}
