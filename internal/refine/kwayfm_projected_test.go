package refine_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/matgen"
	"mlpart/internal/multilevel"
	"mlpart/internal/refine"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// projectedKWay returns the kind of partition refinement meets on the way
// up a direct k-way V-cycle: g is contracted by one HEM level, the coarse
// graph is partitioned by multilevel.PartitionKWay (refinement named BKWAY
// explicitly, so the start cannot move with the default policy), and that
// partition is projected back onto g. Unlike a random assignment it has a realistic
// boundary — a thin layer of vertices with a few adjacent parts each.
func projectedKWay(tb testing.TB, g *graph.Graph, k int) []int {
	tb.Helper()
	h := coarsen.Coarsen(g, coarsen.Options{Scheme: coarsen.HEM, MaxLevels: 1}, rand.New(rand.NewSource(1)))
	if len(h.Levels) != 2 {
		tb.Fatalf("coarsening built %d levels, want 2", len(h.Levels))
	}
	res, err := multilevel.PartitionKWay(h.Coarsest(), k, multilevel.Options{Seed: 1}.WithRefinement(refine.BKWAY))
	if err != nil {
		tb.Fatal(err)
	}
	where := make([]int, g.NumVertices())
	for v, c := range h.Levels[0].Cmap {
		where[v] = res.Where[c]
	}
	return where
}

// whereHash is the FNV-64a hash of a partition vector, each part id
// written as 8 little-endian bytes.
func whereHash(where []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range where {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// recursiveKWay returns the start the KWayRefine pass meets: the k-way
// partition recursive bisection assembles.
func recursiveKWay(tb testing.TB, g *graph.Graph, k int) []int {
	tb.Helper()
	res, err := multilevel.Partition(g, k, multilevel.Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Where
}

// randomKWay returns a uniform random k-way start.
func randomKWay(_ testing.TB, g *graph.Graph, k int) []int {
	return refine.RandomKWhere(g.NumVertices(), k, 5)
}

// TestRefineKWayPinned pins the exact partitions boundary k-way refinement
// produces: the start and final cut, the pass and move counts and a hash
// of Where, for a mesh and a power-law graph from projected starts at two
// k, one random start on the power-law graph (far more moves) and one
// recursive-bisection start on the mesh, each at two worker counts. The
// random-start values were recorded from the engine that rescanned each
// vertex's adjacency on every propose and commit, which the incremental
// per-part degree lists reproduce bit for bit; the projected starts were
// recorded while a second, full-sweep k-way kernel still existed, and held
// unchanged when it was deleted. Refinement never worsens a start.
func TestRefineKWayPinned(t *testing.T) {
	fe3d := matgen.FE3DTetra(20, 20, 20, 1)
	soc := matgen.SocialNetwork(16384, 4, 1)
	for _, tc := range []struct {
		name                      string
		g                         *graph.Graph
		k                         int
		base                      func(testing.TB, *graph.Graph, int) []int
		start, cut, passes, moves int
		hash                      uint64
	}{
		{"fe3d/k=8", fe3d, 8, projectedKWay, 3324, 2974, 8, 322, 0x7b62536118c9d47},
		{"fe3d/k=32", fe3d, 32, projectedKWay, 6650, 6011, 8, 662, 0xda9b2bf650aa8cd3},
		{"soc/k=8", soc, 8, projectedKWay, 36955, 36955, 1, 0, 0x411152d6449d4ba4},
		{"soc/k=32", soc, 32, projectedKWay, 45476, 45475, 8, 42, 0xe992c9424b8ee2da},
		{"soc-random/k=8", soc, 8, randomKWay, 57154, 38304, 8, 16193, 0x9717f85863b0b163},
		{"fe3d-recursive/k=16", fe3d, 16, recursiveKWay, 4385, 4292, 8, 112, 0xbc4c417d6d85122d},
	} {
		where := tc.base(t, tc.g, tc.k)
		for _, workers := range []int{0, 4} {
			p := kway.NewPartition(tc.g, tc.k, slices.Clone(where))
			start := p.Cut
			ctr := &trace.Counters{}
			cut := refine.RefineKWay(p, refine.KWayOptions{Seed: 7, Workers: workers, Counters: ctr})
			refine.VerifyKWay(t, p)
			if cut > start {
				t.Errorf("%s workers=%d: cut worsened %d -> %d", tc.name, workers, start, cut)
			}
			hash := whereHash(p.Where)
			if start != tc.start || cut != tc.cut || ctr.RefinePasses != tc.passes || ctr.RefineMoves != tc.moves || hash != tc.hash {
				t.Errorf("%s workers=%d: start %d, cut %d, passes %d, moves %d, hash %#x; want %d, %d, %d, %d, %#x",
					tc.name, workers, start, cut, ctr.RefinePasses, ctr.RefineMoves, hash,
					tc.start, tc.cut, tc.passes, tc.moves, tc.hash)
			}
		}
	}
}

// TestRefineKWayWorkerParity is the engine's central contract: the
// partition is bit-identical for every worker count, because proposals are
// independent of how the boundary snapshot is chunked and commits are
// always serial in snapshot order. Workers is scheduling, never quality.
func TestRefineKWayWorkerParity(t *testing.T) {
	fe3d := matgen.FE3DTetra(10, 10, 10, 5)
	soc := matgen.SocialNetwork(16384, 4, 1)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
		base []int
	}{
		{"fe3d-random", fe3d, 8, refine.RandomKWhere(fe3d.NumVertices(), 8, 13)},
		{"soc-projected", soc, 32, projectedKWay(t, soc, 32)},
	} {
		run := func(workers int) ([]int, int) {
			p := kway.NewPartition(tc.g, tc.k, slices.Clone(tc.base))
			cut := refine.RefineKWay(p, refine.KWayOptions{Seed: 7, Workers: workers})
			refine.VerifyKWay(t, p)
			return p.Where, cut
		}
		serialWhere, serialCut := run(0)
		for _, workers := range []int{1, 2, 3, 4, 8, 16} {
			where, cut := run(workers)
			if cut != serialCut {
				t.Errorf("%s Workers=%d: cut %d, serial %d", tc.name, workers, cut, serialCut)
			}
			for v := range where {
				if where[v] != serialWhere[v] {
					t.Fatalf("%s Workers=%d: Where[%d] = %d, serial %d", tc.name, workers, v, where[v], serialWhere[v])
				}
			}
		}
	}
}

// BenchmarkRefineKWay measures full boundary k-way refinement on two
// inputs: a random 16-way partition of a 3D FE mesh (every vertex is on
// the boundary), and the projected 32-way partition of a 65k-vertex
// power-law graph (soc/...), the shape refinement meets inside a V-cycle.
// The partition is restored in place between iterations and all scratch
// comes from one pooled workspace, so the serial engine must report
// 0 allocs/op: the move loop allocates nothing in steady state. The
// parallel variants pay only the per-pass goroutine fan-out.
func BenchmarkRefineKWay(b *testing.B) {
	fe3d := matgen.FE3DTetra(16, 16, 16, 6)
	soc := matgen.SocialNetwork(65536, 4, 1)
	for _, in := range []struct {
		prefix string
		g      *graph.Graph
		k      int
		where  func() []int
	}{
		{"", fe3d, 16, func() []int {
			rng := rand.New(rand.NewSource(7))
			w := make([]int, fe3d.NumVertices())
			for i := range w {
				w[i] = rng.Intn(16)
			}
			return w
		}},
		{"soc/", soc, 32, func() []int { return projectedKWay(b, soc, 32) }},
	} {
		baseWhere := in.where()
		for _, workers := range []int{0, 2, 4} {
			name := "serial"
			if workers > 0 {
				name = fmt.Sprintf("workers=%d", workers)
			}
			b.Run(in.prefix+name, func(b *testing.B) {
				b.ReportAllocs()
				p := kway.NewPartition(in.g, in.k, slices.Clone(baseWhere))
				basePwgt := slices.Clone(p.Pwgt)
				baseCut := p.Cut
				ws := new(workspace.Workspace)
				opts := refine.KWayOptions{Seed: 9, Workers: workers, Workspace: ws}
				refine.RefineKWay(p, opts) // warm the pooled buffers to full size
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(p.Where, baseWhere)
					copy(p.Pwgt, basePwgt)
					p.Cut = baseCut
					refine.RefineKWay(p, opts)
				}
			})
		}
	}
}
