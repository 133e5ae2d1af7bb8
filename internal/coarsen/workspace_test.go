package coarsen

import (
	"runtime"
	"slices"
	"testing"

	"mlpart/internal/matgen"
	"mlpart/internal/workspace"
)

func sameHierarchy(t *testing.T, label string, ref, got *Hierarchy) {
	t.Helper()
	if len(got.Levels) != len(ref.Levels) {
		t.Fatalf("%s: %d levels, want %d", label, len(got.Levels), len(ref.Levels))
	}
	for i := range ref.Levels {
		rg, gg := ref.Levels[i].Graph, got.Levels[i].Graph
		if !slices.Equal(gg.Xadj, rg.Xadj) || !slices.Equal(gg.Adjncy, rg.Adjncy) ||
			!slices.Equal(gg.Adjwgt, rg.Adjwgt) || !slices.Equal(gg.Vwgt, rg.Vwgt) {
			t.Fatalf("%s: level %d graph differs", label, i)
		}
		if !slices.Equal(got.Levels[i].Cmap, ref.Levels[i].Cmap) {
			t.Fatalf("%s: level %d cmap differs", label, i)
		}
	}
}

// TestParallelCoarsenIdenticalAcrossWorkers pins the determinism contract of
// Options.Workers: the entire hierarchy — every level's graph and cmap — is
// bit-identical for any worker count, for every scheme. Workers only
// chunks GCLP's propose phase (one chunk per 1024 vertices at most); the
// matchings are sequential.
func TestParallelCoarsenIdenticalAcrossWorkers(t *testing.T) {
	g := matgen.Mesh2DTri(64, 64, 0.02, 7)
	for _, s := range append(allSchemes(), GCLP) {
		ref := Coarsen(g, Options{Scheme: s, CoarsenTo: 60}, rng(9))
		for _, workers := range []int{1, 2, 8} {
			got := Coarsen(g, Options{Scheme: s, CoarsenTo: 60, Workers: workers}, rng(9))
			sameHierarchy(t, s.String(), ref, got)
		}
	}
}

// TestParallelCoarsenHierarchy checks that a hierarchy built with workers
// is a valid one: every level is a valid graph with the finest graph's
// total vertex weight, and the graph really coarsens.
func TestParallelCoarsenHierarchy(t *testing.T) {
	g := matgen.Stiffness3D(16, 16, 16)
	for _, s := range append(allSchemes(), GCLP) {
		h := Coarsen(g, Options{Scheme: s, CoarsenTo: 100, Workers: 4}, rng(6))
		if len(h.Levels) < 2 {
			t.Fatalf("%v: no coarsening", s)
		}
		for i, lv := range h.Levels {
			if err := lv.Graph.Validate(); err != nil {
				t.Fatalf("%v: level %d: %v", s, i, err)
			}
			if lv.Graph.TotalVertexWeight() != g.TotalVertexWeight() {
				t.Fatalf("%v: level %d: vertex weight changed", s, i)
			}
		}
	}
}

// TestCoarsenWorkspaceParity checks the pooling invariant end to end: a
// workspace-backed hierarchy is identical to the allocating one, including
// on later runs that reuse the (now dirty) pooled buffers. The second run
// is taken apart level by level with Pop, as uncoarsening does, and must
// keep the untouched finer levels and leave the finest graph in place.
func TestCoarsenWorkspaceParity(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 3)
	opts := Options{Scheme: HEM, CoarsenTo: 80}
	ref := Coarsen(g, opts, rng(11))

	ws := new(workspace.Workspace)
	wopts := opts
	wopts.Workspace = ws
	for run := 0; run < 3; run++ {
		got := Coarsen(g, wopts, rng(11))
		sameHierarchy(t, "pooled", ref, got)
		if run == 1 {
			for n := len(got.Levels) - 1; n >= 1; n-- {
				got.Pop(ws)
				prefix := &Hierarchy{Levels: slices.Clone(ref.Levels[:n])}
				prefix.Levels[n-1].Cmap = nil
				sameHierarchy(t, "popped", prefix, got)
			}
			got.Pop(ws)
			if len(got.Levels) != 1 || got.Coarsest() != g {
				t.Fatalf("popping a one-level hierarchy left %d levels", len(got.Levels))
			}
		}
		got.Release(ws)
	}
}

// TestContractTrimmedArrays: the coarse graph's adjacency arrays must not
// keep the pessimistic upper-bound capacity they were staged with.
func TestContractTrimmedArrays(t *testing.T) {
	g := matgen.Grid2D(20, 20)
	cg, _, _ := ContractWS(g, MatchWS(g, HEM, nil, nil, rng(3), nil), nil, nil)
	if cap(cg.Adjncy) != len(cg.Adjncy) {
		t.Errorf("cadjncy cap %d != len %d", cap(cg.Adjncy), len(cg.Adjncy))
	}
	if cap(cg.Adjwgt) != len(cg.Adjwgt) {
		t.Errorf("cadjwgt cap %d != len %d", cap(cg.Adjwgt), len(cg.Adjwgt))
	}
}

// TestHierarchyReleaseCoalesces: once a pooled hierarchy is released, the
// pieces its levels were cut into have merged back, so a request as large
// as the finest graph's adjacency, the size of the first level's staging
// arrays, is served without allocating. It reads the allocation count
// around the one request: testing.AllocsPerRun would warm up with a call
// whose fresh buffer then serves the measured ones.
func TestHierarchyReleaseCoalesces(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"HEM", Options{Scheme: HEM, CoarsenTo: 100}},
		{"GCLP", Options{Scheme: GCLP, CoarsenTo: 100}},
	} {
		g := matgen.FE3DTetra(16, 16, 16, 3)
		ws := new(workspace.Workspace)
		tc.opts.Workspace = ws
		h := Coarsen(g, tc.opts, rng(5))
		for i, lv := range h.Levels[1:] {
			if cap(lv.Graph.Adjncy) != len(lv.Graph.Adjncy) || cap(lv.Graph.Adjwgt) != len(lv.Graph.Adjwgt) {
				t.Fatalf("%s: level %d adjacency keeps its staging capacity", tc.name, i+1)
			}
		}
		h.Release(ws)
		free := ws.Bytes()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := ws.Int(len(g.Adjncy))
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 || ws.Bytes() >= free {
			t.Errorf("%s: Int(%d) after Release made %d allocations (free bytes %d -> %d)", tc.name, len(g.Adjncy), n, free, ws.Bytes())
		}
		ws.PutInt(s)
	}
}
