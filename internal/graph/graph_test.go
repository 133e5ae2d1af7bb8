package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mlpart/internal/workspace"
)

// path returns the path graph 0-1-2-...-(n-1).
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}

// cycle returns the n-cycle.
func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.MustBuild()
}

// grid returns the rows x cols 4-connected grid.
func grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// randomGraph returns a random graph with n vertices and ~m edges,
// weights in [1, maxW], built deterministically from seed.
func randomGraph(n, m, maxW int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		b.AddWeightedEdge(u, v, 1+rng.Intn(maxW))
	}
	return b.MustBuild()
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got n=%d m=%d, want 4, 4", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge (0,1) missing in one direction")
	}
	if g.HasEdge(0, 2) {
		t.Error("unexpected edge (0,2)")
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(2)
	b.AddWeightedEdge(0, 1, 3)
	b.AddWeightedEdge(1, 0, 4)
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("got m=%d, want 1", g.NumEdges())
	}
	if w := g.EdgeWeight(0, 1); w != 7 {
		t.Fatalf("merged weight = %d, want 7", w)
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	cases := []func(*Builder){
		func(b *Builder) { b.AddEdge(0, 0) },
		func(b *Builder) { b.AddEdge(0, 9) },
		func(b *Builder) { b.AddEdge(-1, 0) },
		func(b *Builder) { b.AddWeightedEdge(0, 1, 0) },
		func(b *Builder) { b.AddWeightedEdge(0, 1, -2) },
	}
	for i, f := range cases {
		b := NewBuilder(3)
		f(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("case %d: Build accepted invalid input", i)
		}
	}
}

func TestBuilderVertexWeights(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetVertexWeight(1, 5)
	g := b.MustBuild()
	if g.TotalVertexWeight() != 7 {
		t.Fatalf("total vwgt = %d, want 7", g.TotalVertexWeight())
	}
}

func TestFromCSRNilWeights(t *testing.T) {
	// Triangle.
	g, err := FromCSR([]int{0, 2, 4, 6}, []int{1, 2, 0, 2, 0, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || g.TotalEdgeWeight() != 3 || g.TotalVertexWeight() != 3 {
		t.Fatalf("unexpected graph %v", g)
	}
}

func TestFromCSRRejectsAsymmetric(t *testing.T) {
	// Edge 0->1 present, 1->0 missing.
	_, err := FromCSR([]int{0, 1, 1}, []int{1}, nil, nil)
	if err == nil {
		t.Fatal("FromCSR accepted asymmetric graph")
	}
}

func TestValidateCatchesSelfLoop(t *testing.T) {
	g := &Graph{
		Xadj:   []int{0, 1},
		Adjncy: []int{0},
		Adjwgt: []int{1},
		Vwgt:   []int{1},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted self loop")
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := grid(3, 3)
	// Center vertex 4 has degree 4; corners have degree 2.
	if g.Degree(4) != 4 {
		t.Errorf("degree(center) = %d, want 4", g.Degree(4))
	}
	for _, corner := range []int{0, 2, 6, 8} {
		if g.Degree(corner) != 2 {
			t.Errorf("degree(%d) = %d, want 2", corner, g.Degree(corner))
		}
	}
	if g.MaxWeightedDegree() != 4 {
		t.Errorf("max weighted degree = %d, want 4", g.MaxWeightedDegree())
	}
}

func TestTotalEdgeWeight(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 5)
	g := b.MustBuild()
	if g.TotalEdgeWeight() != 7 {
		t.Fatalf("total ewgt = %d, want 7", g.TotalEdgeWeight())
	}
}

func TestBFSVisitsComponent(t *testing.T) {
	g := path(5)
	order := g.BFS(0)
	if len(order) != 5 {
		t.Fatalf("BFS visited %d vertices, want 5", len(order))
	}
	if order[0] != 0 || order[4] != 4 {
		t.Fatalf("BFS order %v, want start 0 end 4", order)
	}
}

func TestComponents(t *testing.T) {
	// Two triangles, disconnected.
	b := NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	labels, count := g.Components()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if labels[0] != labels[1] || labels[0] != labels[2] {
		t.Errorf("first triangle split: %v", labels)
	}
	if labels[3] != labels[4] || labels[3] != labels[5] {
		t.Errorf("second triangle split: %v", labels)
	}
	if labels[0] == labels[3] {
		t.Errorf("components merged: %v", labels)
	}
	if g.IsConnected() {
		t.Error("IsConnected = true for disconnected graph")
	}
	if !grid(4, 4).IsConnected() {
		t.Error("IsConnected = false for grid")
	}
}

func TestPseudoPeripheralOnPath(t *testing.T) {
	g := path(10)
	v := g.PseudoPeripheral(5)
	if v != 0 && v != 9 {
		t.Fatalf("pseudo-peripheral of path = %d, want endpoint", v)
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	g := randomGraph(50, 200, 4, 1)
	n := g.NumVertices()
	perm := rand.New(rand.NewSource(2)).Perm(n)
	pg := Permute(g, perm)
	if err := pg.Validate(); err != nil {
		t.Fatal(err)
	}
	if pg.NumEdges() != g.NumEdges() || pg.TotalEdgeWeight() != g.TotalEdgeWeight() {
		t.Fatal("permutation changed edge set size or weight")
	}
	// Edge (i, j) in g <=> edge (perm[i], perm[j]) in pg with same weight.
	for i := 0; i < n; i++ {
		adj := g.Neighbors(i)
		wgt := g.EdgeWeights(i)
		for k, j := range adj {
			if w := pg.EdgeWeight(perm[i], perm[j]); w != wgt[k] {
				t.Fatalf("edge (%d,%d): weight %d in g, %d in pg", i, j, wgt[k], w)
			}
		}
	}
}

func TestSubgraphExtraction(t *testing.T) {
	g := grid(4, 4)
	keep := make([]bool, 16)
	for v := 0; v < 8; v++ { // top two rows
		keep[v] = true
	}
	sg, l2g := g.Subgraph(keep)
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
	if sg.NumVertices() != 8 {
		t.Fatalf("subgraph n = %d, want 8", sg.NumVertices())
	}
	// 4x4 grid top 2 rows = 2x4 grid: edges = 4*1 + 3*2 = 10.
	if sg.NumEdges() != 10 {
		t.Fatalf("subgraph m = %d, want 10", sg.NumEdges())
	}
	for i, v := range l2g {
		if v != i {
			t.Fatalf("l2g[%d] = %d, want identity for this selection", i, v)
		}
	}
}

func TestPartSubgraph(t *testing.T) {
	g := cycle(6)
	where := []int{0, 0, 0, 1, 1, 1}
	sg0, l2g0 := g.PartSubgraph(where, 0)
	if sg0.NumVertices() != 3 || sg0.NumEdges() != 2 {
		t.Fatalf("part 0: n=%d m=%d, want 3, 2", sg0.NumVertices(), sg0.NumEdges())
	}
	if l2g0[0] != 0 || l2g0[2] != 2 {
		t.Fatalf("l2g0 = %v", l2g0)
	}
}

// TestPartSubgraphWSMatchesSubgraph checks the workspace extraction against
// the keep-mask Subgraph, drawing from a workspace full of dirty buffers.
func TestPartSubgraphWSMatchesSubgraph(t *testing.T) {
	g := randomGraph(200, 900, 5, 11)
	rng := rand.New(rand.NewSource(3))
	where := make([]int, g.NumVertices())
	for v := range where {
		where[v] = rng.Intn(2)
	}
	ws := &workspace.Workspace{}
	var dirty [][]int
	for i := 0; i < 8; i++ {
		dirty = append(dirty, ws.IntFilled(2000, -7))
	}
	for _, s := range dirty {
		ws.PutInt(s)
	}
	for part := 0; part < 2; part++ {
		keep := make([]bool, len(where))
		for v, p := range where {
			keep[v] = p == part
		}
		want, wantL2G := g.Subgraph(keep)
		got, gotL2G := g.PartSubgraphWS(where, part, ws)
		if !slices.Equal(got.Xadj, want.Xadj) || !slices.Equal(got.Adjncy, want.Adjncy) ||
			!slices.Equal(got.Adjwgt, want.Adjwgt) || !slices.Equal(got.Vwgt, want.Vwgt) ||
			!slices.Equal(gotL2G, wantL2G) {
			t.Fatalf("part %d: PartSubgraphWS differs from Subgraph", part)
		}
		got.Release(ws)
		ws.PutInt(gotL2G)
	}
}

func TestIORoundTrip(t *testing.T) {
	graphs := map[string]*Graph{
		"path":     path(7),
		"grid":     grid(5, 4),
		"weighted": randomGraph(30, 120, 5, 3),
	}
	// Add a graph with vertex weights.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetVertexWeight(0, 2)
	b.SetVertexWeight(2, 9)
	graphs["vweighted"] = b.MustBuild()

	for name, g := range graphs {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		rg, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if rg.NumVertices() != g.NumVertices() || rg.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: round trip changed size", name)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if rg.Vwgt[v] != g.Vwgt[v] {
				t.Fatalf("%s: vwgt[%d] changed", name, v)
			}
			adj := g.Neighbors(v)
			wgt := g.EdgeWeights(v)
			for i, u := range adj {
				if rg.EdgeWeight(v, u) != wgt[i] {
					t.Fatalf("%s: edge (%d,%d) weight changed", name, v, u)
				}
			}
		}
	}
}

func TestReadIsolatedVertex(t *testing.T) {
	// Vertex 3 (line three) has no neighbors.
	in := "3 1\n2\n1\n\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 1 {
		t.Fatalf("n=%d m=%d, want 3, 1", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(1) != 0 && g.Degree(2) != 0 {
		t.Fatal("expected an isolated vertex")
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	bad := []string{
		"",                  // empty
		"x y\n",             // non-numeric header
		"2 1\n2\n",          // missing vertex line
		"2 1\n3\n1\n",       // neighbor out of range
		"2 1 100\n1\n2\n",   // vertex sizes unsupported
		"2 2\n2\n1\n",       // header edge count mismatch
		"2 1 011\n2\n1 1\n", // vwgt flag set but weight missing edge weight pairing
	}
	for i, s := range bad {
		if _, err := Read(strings.NewReader(s)); err == nil {
			t.Errorf("case %d (%q): Read accepted invalid input", i, s)
		}
	}
}

func TestReadComments(t *testing.T) {
	in := "% a comment\n3 2\n% another\n2\n1 3\n2\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d, want 3, 2", g.NumVertices(), g.NumEdges())
	}
}

func TestClone(t *testing.T) {
	g := grid(3, 3)
	c := g.Clone()
	c.Vwgt[0] = 42
	c.Adjwgt[0] = 42
	if g.Vwgt[0] == 42 || g.Adjwgt[0] == 42 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestDegreeHistogramAndAverage(t *testing.T) {
	g := grid(3, 3)
	h := g.DegreeHistogram()
	// 4 corners (deg 2), 4 edges (deg 3), 1 center (deg 4).
	if h[2] != 4 || h[3] != 4 || h[4] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	want := float64(2*12) / 9
	if got := g.AverageDegree(); got != want {
		t.Fatalf("avg degree = %v, want %v", got, want)
	}
}

// Property: for any random graph, Permute by a random permutation preserves
// total weights and validates.
func TestPermutePropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := 20 + int(uint64(seed)%30)
		g := randomGraph(n, 3*n, 3, seed)
		perm := rand.New(rand.NewSource(seed + 1)).Perm(g.NumVertices())
		pg := Permute(g, perm)
		return pg.Validate() == nil &&
			pg.TotalEdgeWeight() == g.TotalEdgeWeight() &&
			pg.TotalVertexWeight() == g.TotalVertexWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: subgraph edge weights never exceed the original total, and
// validation always passes.
func TestSubgraphPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(40, 150, 4, seed)
		rng := rand.New(rand.NewSource(seed + 7))
		keep := make([]bool, g.NumVertices())
		for i := range keep {
			keep[i] = rng.Intn(2) == 0
		}
		sg, l2g := g.Subgraph(keep)
		if sg.Validate() != nil {
			return false
		}
		if sg.TotalEdgeWeight() > g.TotalEdgeWeight() {
			return false
		}
		for i, v := range l2g {
			if sg.Vwgt[i] != g.Vwgt[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSummary(t *testing.T) {
	g := path(3)
	if s := g.String(); !strings.Contains(s, "n=3") || !strings.Contains(s, "m=2") {
		t.Fatalf("String() = %q", s)
	}
}

func TestWriteDOT(t *testing.T) {
	g := cycle(4)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, []int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph G {", "0 -- 1", "style=dashed", "lightblue"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	buf.Reset()
	if err := WriteDOT(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "fillcolor") {
		t.Error("uncolored DOT has colors")
	}
	if err := WriteDOT(&buf, g, []int{0}); err == nil {
		t.Error("short where accepted")
	}
}
