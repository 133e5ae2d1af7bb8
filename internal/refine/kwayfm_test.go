package refine

import (
	"math/rand"
	"testing"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/matgen"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// randomKWhere assigns every vertex a uniform random part in [0, k).
func randomKWhere(n, k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	where := make([]int, n)
	for i := range where {
		where[i] = rng.Intn(k)
	}
	return where
}

// verifyKWay recomputes the partition's cut and part weights from scratch
// and fails the test on any drift from the incrementally maintained state.
func verifyKWay(t *testing.T, p *kway.Partition) {
	t.Helper()
	if got := ComputeCut(p.G, p.Where); got != p.Cut {
		t.Fatalf("incremental cut %d, recomputed %d", p.Cut, got)
	}
	pwgt := make([]int, p.K)
	for v, part := range p.Where {
		if part < 0 || part >= p.K {
			t.Fatalf("Where[%d] = %d out of [0,%d)", v, part, p.K)
		}
		pwgt[part] += p.G.Vwgt[v]
	}
	for i, w := range pwgt {
		if w != p.Pwgt[i] {
			t.Fatalf("Pwgt[%d] = %d, recomputed %d", i, p.Pwgt[i], w)
		}
	}
}

// TestRefineKWayMaintainsInvariants refines random starts — a mesh at
// k=5, and small 3D meshes at k from 2 to 7, one graph per seed — and
// checks that the cut never worsens and that the incrementally kept cut,
// part weights and part range match a recount.
func TestRefineKWayMaintainsInvariants(t *testing.T) {
	type input struct {
		g    *graph.Graph
		k    int
		seed int64
	}
	inputs := []input{{matgen.Mesh2DTri(20, 20, 0.02, 7), 5, 3}}
	for seed := int64(0); seed < 10; seed++ {
		inputs = append(inputs, input{matgen.FE3DTetra(5, 5, 4, seed), 2 + int(seed%6), seed})
	}
	for _, in := range inputs {
		p := kway.NewPartition(in.g, in.k, randomKWhere(in.g.NumVertices(), in.k, in.seed))
		before := p.Cut
		after := RefineKWay(p, KWayOptions{Seed: in.seed})
		if after > before {
			t.Errorf("k=%d seed %d: cut worsened %d -> %d", in.k, in.seed, before, after)
		}
		if after != p.Cut {
			t.Errorf("k=%d seed %d: returned cut %d, state says %d", in.k, in.seed, after, p.Cut)
		}
		verifyKWay(t, p)
	}
}

func TestRefineKWayImprovesRandomPartition(t *testing.T) {
	// A random k-way assignment of a mesh cuts most edges; boundary
	// refinement should reduce that dramatically.
	g := matgen.Grid2D(30, 30)
	const k = 4
	p := kway.NewPartition(g, k, randomKWhere(g.NumVertices(), k, 9))
	before := p.Cut
	after := RefineKWay(p, KWayOptions{Seed: 2})
	if after >= before*3/4 {
		t.Errorf("weak improvement %d -> %d", before, after)
	}
	verifyKWay(t, p)
}

func TestRefineKWayDeterministicForFixedSeed(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 5)
	const k = 6
	run := func() []int {
		p := kway.NewPartition(g, k, randomKWhere(g.NumVertices(), k, 11))
		RefineKWay(p, KWayOptions{Seed: 42})
		return p.Where
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("two serial runs with the same seed diverge at vertex %d", v)
		}
	}
}

func TestRefineKWayRespectsBalance(t *testing.T) {
	g := matgen.Mesh2DTri(25, 25, 0, 10)
	const k = 5
	const ub = 1.1
	// Start from a balanced striped partition; refinement must keep every
	// part within tolerance.
	n := g.NumVertices()
	where := make([]int, n)
	for i := range where {
		where[i] = i * k / n
	}
	p := kway.NewPartition(g, k, where)
	RefineKWay(p, KWayOptions{Seed: 3, Ubfactor: ub})
	verifyKWay(t, p)
	tot := g.TotalVertexWeight()
	maxVwgt := 0
	for _, w := range g.Vwgt {
		if w > maxVwgt {
			maxVwgt = w
		}
	}
	limit := int(ub * float64(tot/k))
	if l2 := tot/k + maxVwgt; l2 > limit {
		limit = l2
	}
	for i, w := range p.Pwgt {
		if w > limit {
			t.Errorf("Pwgt[%d] = %d exceeds limit %d", i, w, limit)
		}
		if w <= 0 {
			t.Errorf("Pwgt[%d] = %d: part emptied", i, w)
		}
	}
}

func TestRefineKWayPooledMatchesAllocating(t *testing.T) {
	g := matgen.Grid2D(24, 24)
	const k = 6
	base := randomKWhere(g.NumVertices(), k, 17)
	pooled := kway.NewPartition(g, k, append([]int(nil), base...))
	plain := kway.NewPartition(g, k, append([]int(nil), base...))
	ws := new(workspace.Workspace)
	cutPooled := RefineKWay(pooled, KWayOptions{Seed: 5, Workspace: ws})
	cutPlain := RefineKWay(plain, KWayOptions{Seed: 5})
	if cutPooled != cutPlain {
		t.Fatalf("pooled cut %d, allocating cut %d", cutPooled, cutPlain)
	}
	for v := range pooled.Where {
		if pooled.Where[v] != plain.Where[v] {
			t.Fatalf("pooled and allocating runs diverge at vertex %d", v)
		}
	}
}

func TestRefineKWayTraceEvents(t *testing.T) {
	g := matgen.Grid2D(20, 20)
	const k = 4
	p := kway.NewPartition(g, k, randomKWhere(g.NumVertices(), k, 19))
	col := &trace.Collector{}
	ctr := &trace.Counters{}
	RefineKWay(p, KWayOptions{Seed: 1, Tracer: col, Counters: ctr, Level: 2})
	events := col.Events()
	if len(events) == 0 {
		t.Fatal("no trace events emitted")
	}
	moves := 0
	for i, e := range events {
		if e.Kind != trace.KindPass || e.Algorithm != "BKWAY" {
			t.Fatalf("event %d: kind %q algorithm %q", i, e.Kind, e.Algorithm)
		}
		if e.Level != 2 || e.Pass != i {
			t.Errorf("event %d: level %d pass %d", i, e.Level, e.Pass)
		}
		if e.Boundary <= 0 {
			t.Errorf("event %d: boundary size %d, want > 0", i, e.Boundary)
		}
		moves += e.Moves
	}
	last := events[len(events)-1]
	if last.Cut != p.Cut {
		t.Errorf("last pass reports cut %d, partition has %d", last.Cut, p.Cut)
	}
	if ctr.RefinePasses != len(events) || ctr.RefineMoves != moves {
		t.Errorf("counters passes=%d moves=%d, events say %d/%d",
			ctr.RefinePasses, ctr.RefineMoves, len(events), moves)
	}
}

// TestRefineKWayFaultInjection pins the kway/pass site contract: an
// injected error abandons the remaining passes and keeps the moves
// committed so far — always a structurally valid partition.
func TestRefineKWayFaultInjection(t *testing.T) {
	g := matgen.Grid2D(20, 20)
	const k = 4
	base := randomKWhere(g.NumVertices(), k, 23)

	// Firing on the first pass boundary means no pass runs at all.
	inj := faults.MustParse("kway/pass=error@1")
	p := kway.NewPartition(g, k, append([]int(nil), base...))
	before := p.Cut
	after := RefineKWay(p, KWayOptions{Seed: 1, Injector: inj})
	if after != before {
		t.Errorf("error at the first pass boundary still moved vertices: %d -> %d", before, after)
	}
	if inj.HitCount(faults.SiteKWayPass) != 1 {
		t.Errorf("site hit %d times, want 1", inj.HitCount(faults.SiteKWayPass))
	}

	// Firing on the second boundary keeps pass one's committed moves.
	inj2 := faults.MustParse("kway/pass=error@2")
	p2 := kway.NewPartition(g, k, append([]int(nil), base...))
	after2 := RefineKWay(p2, KWayOptions{Seed: 1, Injector: inj2})
	if after2 >= before {
		t.Errorf("one committed pass should improve a random partition: %d -> %d", before, after2)
	}
	verifyKWay(t, p2)
}

func TestRefineKWayDegenerateInputs(t *testing.T) {
	// k = 1: nothing to refine.
	g := matgen.Grid2D(5, 5)
	p := kway.NewPartition(g, 1, make([]int, g.NumVertices()))
	if cut := RefineKWay(p, KWayOptions{}); cut != 0 {
		t.Errorf("k=1 cut = %d, want 0", cut)
	}
	// One vertex per part: every vertex is boundary but no move can be
	// applied (each would empty its source part); must converge cleanly.
	p2 := kway.NewPartition(g, 25, seqWhere(g.NumVertices()))
	RefineKWay(p2, KWayOptions{Seed: 1})
	verifyKWay(t, p2)
}

func seqWhere(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = i
	}
	return w
}
