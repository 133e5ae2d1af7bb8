package refine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/matgen"
	"mlpart/internal/metrics"
	"mlpart/internal/workspace"
)

// checkConnectivity recounts, from the partition alone, every vertex's
// internal degree, its (part, degree) pairs and the boundary set, and fails
// on any difference from the refiner's incrementally kept state. It also
// checks that each list fits its slot, each slot lies in the used pool
// and no slot is larger than the parts its vertex can touch.
func checkConnectivity(t testing.TB, r *kwayRefiner) {
	t.Helper()
	g := r.p.G
	deg := make([]int, r.p.K)
	boundary := 0
	if r.used > len(r.pairPart) || len(r.pairPart) != len(r.pairDeg) {
		t.Fatalf("%d pairs handed out of a pool of %d/%d", r.used, len(r.pairPart), len(r.pairDeg))
	}
	for v := 0; v < g.NumVertices(); v++ {
		clear(deg)
		pv := r.p.Where[v]
		wgt := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			deg[r.p.Where[u]] += wgt[i]
		}
		if r.id[v] != deg[pv] {
			t.Fatalf("id[%d] = %d, recount %d", v, r.id[v], deg[pv])
		}
		want := 0
		for q, d := range deg {
			if q != pv && d > 0 {
				want++
			}
		}
		if r.cnt[v] != want {
			t.Fatalf("vertex %d has %d pairs, recount %d adjacent parts", v, r.cnt[v], want)
		}
		if want > 0 && (r.off[v] < 0 || r.off[v]+r.room[v] > r.used) {
			t.Fatalf("vertex %d: slot at %d of %d pairs outside the %d pairs in use", v, r.off[v], r.room[v], r.used)
		}
		if want > r.room[v] || r.room[v] > min(g.Degree(v), r.p.K-1) {
			t.Fatalf("vertex %d: %d pairs in a slot of %d, degree %d, k %d", v, want, r.room[v], g.Degree(v), r.p.K)
		}
		for j := 0; j < r.cnt[v]; j++ {
			q, d := r.pairPart[r.off[v]+j], r.pairDeg[r.off[v]+j]
			if q == pv || q < 0 || q >= r.p.K || d <= 0 || d != deg[q] {
				t.Fatalf("vertex %d (part %d): pair (%d, %d), recount degree %d", v, pv, q, d, deg[max(0, min(q, r.p.K-1))])
			}
			deg[q] = -d // a repeated part now mismatches
		}
		if in := r.bndIndex[v] >= 0; in != (want > 0) {
			t.Fatalf("vertex %d: in boundary %v, adjacent to %d other parts", v, in, want)
		}
		if want > 0 {
			boundary++
			if r.bndList[r.bndIndex[v]] != v {
				t.Fatalf("bndList[bndIndex[%d]] = %d", v, r.bndList[r.bndIndex[v]])
			}
		}
	}
	if len(r.bndList) != boundary {
		t.Fatalf("boundary list holds %d vertices, recount %d", len(r.bndList), boundary)
	}
}

// checkSettled checks every settled vertex: it is on the boundary, no
// pair of it has gain >= 0, and proposing for it afresh — with the mark
// ignored, against the current part weights — gives -1.
func checkSettled(t testing.TB, r *kwayRefiner, bounds metrics.Bounds) {
	t.Helper()
	fresh := make([]bool, len(r.settled))
	best := make([]int, len(r.bestTo))
	for v, settled := range r.settled {
		if !settled {
			continue
		}
		if r.cnt[v] == 0 {
			t.Fatalf("settled vertex %d is interior", v)
		}
		for j := r.off[v]; j < r.off[v]+r.cnt[v]; j++ {
			if gain := r.pairDeg[j] - r.id[v]; gain >= 0 {
				t.Fatalf("settled vertex %d has gain %d into part %d", v, gain, r.pairPart[j])
			}
		}
		kwayPropose(r.p, r.kwayLists, best, fresh, []int{v}, bounds)
		if best[v] != -1 {
			t.Fatalf("settled vertex %d proposes part %d", v, best[v])
		}
	}
}

// checkedRefineKWay runs RefineKWay's passes on p — the same build,
// snapshot, propose and commit steps with the default options — and checks
// the connectivity against a recount after the build and after every
// committed move, and the settled vertices after every pass. With tight set, the pool is cut back after the build to
// the pairs the build wrote, so the first relocation must grow it; pool
// size never changes a result. It returns the moves made and whether the
// pair pool grew.
func checkedRefineKWay(t testing.TB, p *kway.Partition, seed int64, tight bool) (moves int, grew bool) {
	t.Helper()
	ws := &workspace.Workspace{}
	opts := KWayOptions{}.withDefaults()
	limit := kwayLimit(p.G, p.K, opts.Ubfactor)
	r := newKWayRefiner(p, ws)
	defer r.release()
	if tight {
		r.pairPart, r.pairDeg = r.pairPart[:r.used], r.pairDeg[:r.used]
	}
	checkConnectivity(t, &r)
	pool := len(r.pairPart)
	order := make([]int, p.G.NumVertices())
	rng := passRNG(seed)
	for pass := 0; pass < opts.MaxPasses && len(r.bndList) > 0; pass++ {
		snap := r.snapshot(order, &rng)
		r.propose(1, limit)
		passMoves := 0
		for _, v := range snap {
			if _, ok := r.commitOne(v, limit); ok {
				passMoves++
				checkConnectivity(t, &r)
			}
		}
		checkSettled(t, &r, limit)
		moves += passMoves
		if passMoves == 0 {
			break
		}
	}
	return moves, len(r.pairPart) > pool
}

// weightedGrid is a rows x cols grid with random edge weights in [1, 9]
// and vertex weights in [1, 3].
func weightedGrid(rows, cols int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(rows * cols)
	for v := 0; v < rows*cols; v++ {
		b.SetVertexWeight(v, 1+rng.Intn(3))
		if (v+1)%cols != 0 {
			b.AddWeightedEdge(v, v+1, 1+rng.Intn(9))
		}
		if v+cols < rows*cols {
			b.AddWeightedEdge(v, v+cols, 1+rng.Intn(9))
		}
	}
	return b.MustBuild()
}

// tinyBoundaryWhere puts every vertex in part 0 except one vertex per
// other part, spread evenly over the vertex ids: the initial boundary is a
// few neighbourhoods, so a pool holding just the initial pairs must grow
// as refinement moves the boundary.
func tinyBoundaryWhere(n, k int) []int {
	where := make([]int, n)
	for q := 1; q < k; q++ {
		where[q*n/k] = q
	}
	return where
}

// TestRefineKWayConnectivity checks the incremental connectivity against a
// from-scratch recount after every single commit, over meshes, a power-law
// graph and a weighted grid, k from 2 to 64, from random starts and from
// starts with a tiny boundary, and that the refinement is the one
// RefineKWay itself performs. The tiny-boundary starts run with a tight
// pool (see checkedRefineKWay), which keeps the grow path under the
// per-commit recount.
func TestRefineKWayConnectivity(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"fe3d", matgen.FE3DTetra(6, 6, 6, 1)},
		{"soc", matgen.SocialNetwork(600, 4, 2)},
		{"weighted-grid", weightedGrid(14, 14, 3)},
	}
	grewTiny := 0
	for _, tc := range graphs {
		n := tc.g.NumVertices()
		for _, k := range []int{2, 8, 32, 64} {
			for _, start := range []string{"random", "tiny"} {
				where := randomKWhere(n, k, int64(k))
				if start == "tiny" {
					where = tinyBoundaryWhere(n, k)
				}
				name := fmt.Sprintf("%s/k=%d/%s", tc.name, k, start)
				p := kway.NewPartition(tc.g, k, slices.Clone(where))
				moves, grew := checkedRefineKWay(t, p, 3, start == "tiny")
				verifyKWay(t, p)
				if start == "random" && moves == 0 {
					t.Errorf("%s: no moves from a random start", name)
				}
				if start == "tiny" && grew {
					grewTiny++
				}
				ref := kway.NewPartition(tc.g, k, slices.Clone(where))
				RefineKWay(ref, KWayOptions{Seed: 3})
				if !slices.Equal(p.Where, ref.Where) {
					t.Fatalf("%s: checked passes diverge from RefineKWay", name)
				}
			}
		}
	}
	if grewTiny == 0 {
		t.Error("no tiny-boundary start grew the pair pool")
	}
	t.Logf("%d tiny-boundary starts grew the pair pool", grewTiny)
}

// FuzzRefineKWayConnectivity checks the connectivity invariant over random
// graphs and partitions. The bytes of data are read in triples (u, v, w)
// as edges; n, k, the partition and the pass seed come from the other
// arguments, and even seeds run with a tight pool.
func FuzzRefineKWayConnectivity(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 2, 3, 5, 3, 0, 2, 0, 2, 9}, uint8(6), uint8(3), int64(1))
	f.Add([]byte{0, 1, 9, 0, 2, 9, 0, 3, 9, 0, 4, 9, 4, 5, 1, 5, 6, 1, 6, 7, 1}, uint8(10), uint8(4), int64(7))
	f.Fuzz(func(t *testing.T, data []byte, nb, kb uint8, seed int64) {
		n := 2 + int(nb)%64
		k := 2 + int(kb)%16
		b := graph.NewBuilder(n)
		for i := 0; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				b.AddWeightedEdge(u, v, 1+int(data[i+2])%16)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		where := make([]int, n)
		for v := range where {
			where[v] = rng.Intn(k)
			g.Vwgt[v] = 1 + rng.Intn(4)
		}
		p := kway.NewPartition(g, k, slices.Clone(where))
		checkedRefineKWay(t, p, seed, seed%2 == 0)
		verifyKWay(t, p)
		ref := kway.NewPartition(g, k, slices.Clone(where))
		RefineKWay(ref, KWayOptions{Seed: seed})
		if !slices.Equal(p.Where, ref.Where) {
			t.Fatal("checked passes diverge from RefineKWay")
		}
	})
}

// TestRefineKWayUnderstatedCut builds the connectivity of partitions whose
// Cut reads below the truth, down to a negative one: the pool is then
// sized too small, and the build must grow it rather than write past its
// end, with the refinement unchanged.
func TestRefineKWayUnderstatedCut(t *testing.T) {
	g := matgen.SocialNetwork(600, 4, 2)
	for _, k := range []int{2, 8, 64} {
		where := randomKWhere(g.NumVertices(), k, int64(k))
		ref := kway.NewPartition(g, k, slices.Clone(where))
		RefineKWay(ref, KWayOptions{Seed: 5})
		for _, cut := range []int{-5, 0, 1, ref.Cut / 3} {
			p := kway.NewPartition(g, k, slices.Clone(where))
			truth := p.Cut
			p.Cut = cut
			ws := &workspace.Workspace{}
			r := newKWayRefiner(p, ws)
			checkConnectivity(t, &r)
			if len(r.pairPart) < r.used || r.used <= 2*cut {
				t.Fatalf("k=%d cut=%d: %d pairs in a pool of %d", k, cut, r.used, len(r.pairPart))
			}
			r.release()
			RefineKWay(p, KWayOptions{Seed: 5})
			if !slices.Equal(p.Where, ref.Where) || p.Cut-cut != ref.Cut-truth {
				t.Fatalf("k=%d cut=%d: refinement differs from the one with the true cut", k, cut)
			}
		}
	}
}
