package metrics_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mlpart/internal/graph"
	"mlpart/internal/matgen"
	"mlpart/internal/metrics"
	"mlpart/internal/multilevel"
	"mlpart/internal/refine"
)

func TestBalance(t *testing.T) {
	for _, tc := range []struct {
		name string
		pwgt []int
		want float64
	}{
		{"empty", nil, 1},
		{"zero total", []int{0, 0, 0}, 1},
		{"k=1", []int{7}, 1},
		{"perfect", []int{5, 5, 5, 5}, 1},
		{"uneven", []int{6, 2, 0, 2}, 2.4},
	} {
		if got := metrics.Balance(tc.pwgt); got != tc.want {
			t.Errorf("%s: Balance(%v) = %v, want %v", tc.name, tc.pwgt, got, tc.want)
		}
	}
}

// TestTolerance covers the one balance tolerance every refiner, the
// rebalancer and every validator share: its default, its validation and
// its part-weight bounds.
func TestTolerance(t *testing.T) {
	for _, tc := range []struct {
		ub, want float64
	}{
		{0, 1.05},
		{1, 1.05}, // exactly 1 does not request perfect balance
		{1.03, 1.03},
	} {
		if got := metrics.Ubfactor(tc.ub); got != tc.want {
			t.Errorf("Ubfactor(%v) = %v, want %v", tc.ub, got, tc.want)
		}
	}

	for _, tc := range []struct {
		ub float64
		ok bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{0.5, false},
		{0.999, false},
		{0, true},
		{1, true},
		{1.03, true},
	} {
		if err := metrics.ValidateUbfactor(tc.ub); (err == nil) != tc.ok {
			t.Errorf("ValidateUbfactor(%v) = %v, want ok=%v", tc.ub, err, tc.ok)
		}
	}

	for _, tc := range []struct {
		name          string
		target, slack int
		ub            float64
		want          metrics.Bounds
	}{
		// 1.05*1000 = 1050 beats 1000+3.
		{"fine level, factor dominates", 1000, 3, 1.05, metrics.Bounds{Lo: 1, Hi: 1050}},
		// 1.05*40 = 42 loses to 40+9: a heavy multinode stays movable.
		{"coarse level, slack dominates", 40, 9, 1.05, metrics.Bounds{Lo: 1, Hi: 49}},
		{"target 0", 0, 2, 1.05, metrics.Bounds{Lo: 1, Hi: 2}},
	} {
		if got := metrics.PartBounds(tc.target, tc.ub, tc.slack); got != tc.want {
			t.Errorf("%s: PartBounds(%d, %v, %d) = %+v, want %+v",
				tc.name, tc.target, tc.ub, tc.slack, got, tc.want)
		}
	}
}

func TestEvaluateKnownSmallCase(t *testing.T) {
	// Path 0-1-2-3, split {0,1} | {2,3}: cut 1, one boundary vertex per
	// side, comm volume 2, both parts connected.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	r, err := metrics.Evaluate(g, []int{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeCut != 1 {
		t.Errorf("EdgeCut = %d, want 1", r.EdgeCut)
	}
	if r.CommVolume != 2 || r.MaxPartVolume != 1 {
		t.Errorf("CommVolume = %d/%d, want 2/1", r.CommVolume, r.MaxPartVolume)
	}
	if r.BoundaryVertices != 2 {
		t.Errorf("BoundaryVertices = %d, want 2", r.BoundaryVertices)
	}
	if r.Balance != 1 {
		t.Errorf("Balance = %v, want 1", r.Balance)
	}
	if r.MaxPartDegree != 1 {
		t.Errorf("MaxPartDegree = %d, want 1", r.MaxPartDegree)
	}
	if r.DisconnectedParts != 0 || r.EmptyParts != 0 {
		t.Errorf("connectivity wrong: %+v", r)
	}
}

func TestEvaluateDisconnectedPart(t *testing.T) {
	// Path 0-1-2-3-4 with part 0 = {0, 4} (two islands).
	b := graph.NewBuilder(5)
	for i := 0; i+1 < 5; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.MustBuild()
	r, err := metrics.Evaluate(g, []int{0, 1, 1, 1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.DisconnectedParts != 1 {
		t.Errorf("DisconnectedParts = %d, want 1", r.DisconnectedParts)
	}
}

func TestEvaluateEmptyPart(t *testing.T) {
	g := graph.NewBuilder(2).MustBuild()
	r, err := metrics.Evaluate(g, []int{0, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.EmptyParts != 2 {
		t.Errorf("EmptyParts = %d, want 2", r.EmptyParts)
	}
}

func TestEvaluateMatchesComputeCut(t *testing.T) {
	g := matgen.Mesh2DTri(15, 15, 0.02, 1)
	res, err := multilevel.Partition(g, 8, multilevel.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := metrics.Evaluate(g, res.Where, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeCut != res.EdgeCut {
		t.Fatalf("metrics cut %d, partition cut %d", r.EdgeCut, res.EdgeCut)
	}
	if r.EdgeCut != refine.ComputeCut(g, res.Where) {
		t.Fatal("metrics cut disagrees with ComputeCut")
	}
}

func TestEvaluateErrors(t *testing.T) {
	g := matgen.Grid2D(3, 3)
	if _, err := metrics.Evaluate(g, make([]int, 4), 2); err == nil {
		t.Error("short where accepted")
	}
	if _, err := metrics.Evaluate(g, make([]int, 9), 0); err == nil {
		t.Error("k=0 accepted")
	}
	bad := make([]int, 9)
	bad[0] = 5
	if _, err := metrics.Evaluate(g, bad, 2); err == nil {
		t.Error("out-of-range part accepted")
	}
}

func TestReportString(t *testing.T) {
	g := matgen.Grid2D(4, 4)
	where := make([]int, 16)
	for i := 8; i < 16; i++ {
		where[i] = 1
	}
	r, _ := metrics.Evaluate(g, where, 2)
	s := r.String()
	for _, want := range []string{"edge-cut", "comm-volume", "balance"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

// TestEvaluateWeightedMultiPart checks a hand-built vertex- and
// edge-weighted graph across k=3 parts: cut must sum edge weights, part
// weights must sum vertex weights, and balance must use weights (not
// counts).
func TestEvaluateWeightedMultiPart(t *testing.T) {
	// Triangle chain: 0-1-2-3-4-5 path plus chords 0-2 and 3-5.
	b := graph.NewBuilder(6)
	vw := []int{5, 1, 1, 2, 2, 7}
	for v, w := range vw {
		b.SetVertexWeight(v, w)
	}
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 3)
	b.AddWeightedEdge(2, 3, 4)
	b.AddWeightedEdge(3, 4, 1)
	b.AddWeightedEdge(4, 5, 2)
	b.AddWeightedEdge(0, 2, 1)
	b.AddWeightedEdge(3, 5, 6)
	g := b.MustBuild()

	// Parts: {0,1,2} | {3,4} | {5}. Crossing edges: 2-3 (4), 4-5 (2),
	// 3-5 (6) => cut 12.
	where := []int{0, 0, 0, 1, 1, 2}
	r, err := metrics.Evaluate(g, where, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeCut != 12 {
		t.Errorf("EdgeCut = %d, want 12", r.EdgeCut)
	}
	wantW := []int{7, 4, 7}
	for p, w := range wantW {
		if r.PartWeights[p] != w {
			t.Errorf("PartWeights[%d] = %d, want %d", p, r.PartWeights[p], w)
		}
	}
	// Balance = k * max / total = 3*7/18.
	if want := 3.0 * 7 / 18; r.Balance != want {
		t.Errorf("Balance = %v, want %v", r.Balance, want)
	}
	// Boundary: 2 (nbr 3), 3 (nbrs 2,5 -> remote 2 parts), 4 (nbr 5),
	// 5 (nbrs 3,4 in one remote part). CommVolume = 1+2+1+1 = 5.
	if r.BoundaryVertices != 4 {
		t.Errorf("BoundaryVertices = %d, want 4", r.BoundaryVertices)
	}
	if r.CommVolume != 5 {
		t.Errorf("CommVolume = %d, want 5", r.CommVolume)
	}
	// Part 1 ({3,4}) talks to both others; MaxPartDegree = 2.
	if r.MaxPartDegree != 2 {
		t.Errorf("MaxPartDegree = %d, want 2", r.MaxPartDegree)
	}
	if r.DisconnectedParts != 0 || r.EmptyParts != 0 {
		t.Errorf("connectivity wrong: %+v", r)
	}
}

// TestEvaluateWeightedPartition runs PartitionWeighted on a graph with
// non-uniform vertex weights and checks the Report agrees with the
// partitioner's own accounting and respects the target fractions.
func TestEvaluateWeightedPartition(t *testing.T) {
	g := matgen.Mesh2DTri(20, 20, 0.02, 3)
	// Make vertex weights non-uniform but deterministic.
	for v := range g.Vwgt {
		g.Vwgt[v] = 1 + v%4
	}
	fracs := []float64{4, 2, 1, 1}
	res, err := multilevel.PartitionWeighted(g, fracs, multilevel.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r, err := metrics.Evaluate(g, res.Where, len(fracs))
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeCut != res.EdgeCut {
		t.Fatalf("metrics cut %d, partition cut %d", r.EdgeCut, res.EdgeCut)
	}
	tot := 0
	for p, w := range r.PartWeights {
		if w != res.PartWeights[p] {
			t.Errorf("PartWeights[%d] = %d, partitioner says %d", p, w, res.PartWeights[p])
		}
		tot += w
	}
	if tot != g.TotalVertexWeight() {
		t.Fatalf("part weights sum %d, total %d", tot, g.TotalVertexWeight())
	}
	// Each part should land near its fraction of the total (loose 25%
	// tolerance: the point is proportionality, not exact balance).
	fracTot := 0.0
	for _, f := range fracs {
		fracTot += f
	}
	for p, f := range fracs {
		want := float64(tot) * f / fracTot
		if got := float64(r.PartWeights[p]); got < 0.75*want || got > 1.25*want {
			t.Errorf("part %d weight %v, want within 25%% of %v", p, got, want)
		}
	}
	if r.EmptyParts != 0 {
		t.Errorf("EmptyParts = %d, want 0", r.EmptyParts)
	}
}

// Property: comm volume is at least the boundary count and at most the cut
// counted by endpoints; weights always sum to the total.
func TestEvaluatePropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := matgen.FE3DTetra(5, 5, 4, seed)
		k := 2 + int(uint64(seed)%6)
		res, err := multilevel.Partition(g, k, multilevel.Options{Seed: seed})
		if err != nil {
			return false
		}
		r, err := metrics.Evaluate(g, res.Where, k)
		if err != nil {
			return false
		}
		if r.CommVolume < r.BoundaryVertices {
			return false
		}
		tot := 0
		for _, w := range r.PartWeights {
			tot += w
		}
		return tot == g.TotalVertexWeight() && r.Balance >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
