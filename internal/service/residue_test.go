package service

import (
	"bytes"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"mlpart"
	"mlpart/internal/graph"
	"mlpart/internal/matgen"
)

// unkeyedTerm is the symmetry residue's term for a stored edge (u,v,w)
// under the fixed public multipliers the fused check used before its key
// was drawn per process: asymMix(u,v,w) − asymMix(v,u,w).
func unkeyedTerm(u, v, w int) uint64 {
	mix := func(u, v, w int) uint64 {
		x := uint64(u)*0x9E3779B97F4A7C15 + uint64(v)*0xC2B2AE3D27D4EB4F + uint64(w)*0x165667B19E3779F9
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		return x
	}
	return mix(u, v, w) - mix(v, u, w)
}

// oneWay is an edge stored only in its source's list.
type oneWay struct{ u, v, w int }

// birthdayNode is one entry of a generalized-birthday merge list: a sum of
// terms and the candidate index it took from each input list.
type birthdayNode struct {
	sum  uint64
	pick []int
}

// mergeLow pairs entries of a and b whose sums add to 0 on the low bits
// of mask, keeping at most limit pairs.
func mergeLow(a, b []birthdayNode, mask uint64, limit int) []birthdayNode {
	sorted := slices.Clone(b)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].sum&mask < sorted[j].sum&mask })
	var out []birthdayNode
	for _, x := range a {
		want := -x.sum & mask
		for i := sort.Search(len(sorted), func(i int) bool { return sorted[i].sum&mask >= want }); i < len(sorted) && sorted[i].sum&mask == want; i++ {
			y := sorted[i]
			out = append(out, birthdayNode{sum: x.sum + y.sum, pick: append(slices.Clone(x.pick), y.pick...)})
			if len(out) == limit {
				return out
			}
		}
	}
	return out
}

// unkeyedCollision returns 16 one-way edges on g whose unkeyed terms sum
// to 0 mod 2^64: a four-level generalized-birthday merge (Wagner's k-tree)
// over 16 lists of 2^14 candidates, zeroing 14 more low bits per level and
// the last 22 in the final merge. List i holds the edges from one source
// vertex to 8,192 vertices that are neither its neighbours nor sources,
// at weights 1 and 2, so any pick is 16 distinct one-way edges.
func unkeyedCollision(t *testing.T, g *graph.Graph) []oneWay {
	const lists, perList = 16, 1 << 14
	n := g.NumVertices()
	source := make([]bool, n)
	us := make([]int, lists)
	for i := range us {
		us[i] = (i*n)/lists + 37
		source[us[i]] = true
	}
	cands := make([][]oneWay, lists)
	level := make([][]birthdayNode, lists)
	for i, u := range us {
		for v := 0; v < n && len(cands[i]) < perList; v++ {
			if v == u || source[v] || g.HasEdge(u, v) {
				continue
			}
			for w := 1; w <= 2; w++ {
				level[i] = append(level[i], birthdayNode{sum: unkeyedTerm(u, v, w), pick: []int{len(cands[i])}})
				cands[i] = append(cands[i], oneWay{u, v, w})
			}
		}
		if len(cands[i]) != perList {
			t.Fatalf("list %d has %d candidates, want %d", i, len(cands[i]), perList)
		}
	}
	for bits := 14; len(level) > 1; bits += 14 {
		mask := uint64(1)<<bits - 1
		if len(level) == 2 {
			mask = ^uint64(0)
		}
		next := make([][]birthdayNode, len(level)/2)
		for i := range next {
			next[i] = mergeLow(level[2*i], level[2*i+1], mask, perList)
		}
		level = next
	}
	if len(level[0]) == 0 {
		t.Fatal("the merge found no zero-sum pick")
	}
	edges := make([]oneWay, lists)
	for i, c := range level[0][0].pick {
		edges[i] = cands[i][c]
	}
	return edges
}

// withOneWay returns g with each edge e added to e.u's list only.
func withOneWay(g *graph.Graph, edges []oneWay) *graph.Graph {
	extra := make(map[int]oneWay, len(edges))
	for _, e := range edges {
		extra[e.u] = e
	}
	n := g.NumVertices()
	out := &graph.Graph{Xadj: make([]int, 1, n+1), Vwgt: slices.Clone(g.Vwgt)}
	for u := 0; u < n; u++ {
		out.Adjncy = append(out.Adjncy, g.Neighbors(u)...)
		out.Adjwgt = append(out.Adjwgt, g.EdgeWeights(u)...)
		if e, ok := extra[u]; ok {
			out.Adjncy = append(out.Adjncy, e.v)
			out.Adjwgt = append(out.Adjwgt, e.w)
		}
		out.Xadj = append(out.Xadj, len(out.Adjncy))
	}
	return out
}

// TestKeyedResidueRejectsUnkeyedCollision: a graph whose asymmetry
// cancels in the residue under the public multipliers the fused symmetry
// check once used — built offline in well under a second — is rejected by
// FromCSR, the csrb decoder and session create, each with Validate's
// text, now that the multipliers are drawn per process.
func TestKeyedResidueRejectsUnkeyedCollision(t *testing.T) {
	start := time.Now()
	grid := matgen.Grid2D(100, 164)
	edges := unkeyedCollision(t, grid)
	t.Logf("found %d one-way edges with a zero unkeyed residue in %v", len(edges), time.Since(start))
	g := withOneWay(grid, edges)
	var residue uint64
	for u := 0; u < g.NumVertices(); u++ {
		for j, v := range g.Neighbors(u) {
			residue += unkeyedTerm(u, v, g.EdgeWeights(u)[j])
		}
	}
	if residue != 0 {
		t.Fatalf("unkeyed residue %#x, want 0: the collision is not one", residue)
	}
	verr := g.Validate()
	if verr == nil || !strings.Contains(verr.Error(), "asymmetric edge") {
		t.Fatalf("Validate = %v, want an asymmetric edge", verr)
	}
	want := verr.Error()

	if _, err := graph.FromCSR(g.Xadj, g.Adjncy, g.Adjwgt, g.Vwgt); err == nil || err.Error() != want {
		t.Errorf("FromCSR = %v, want %q", err, want)
	}
	var csrb bytes.Buffer
	if err := graph.EncodeBinary(&csrb, g); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.DecodeBinary(csrb.Bytes()); err == nil || err.Error() != want {
		t.Errorf("DecodeBinary = %v, want %q", err, want)
	}

	_, ts := newTestServer(t, Config{})
	wg := mlpart.WireGraph{Xadj: g.Xadj, Adjncy: g.Adjncy, Adjwgt: g.Adjwgt, Vwgt: g.Vwgt}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/graphs", mlpart.SessionCreateRequest{Graph: wg, K: 2})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), want) {
		t.Errorf("POST /v1/graphs (json): status %d, body %s; want 400 naming %q", resp.StatusCode, data, want)
	}
	resp, data = postBinary(t, ts.Client(), ts.URL+"/v1/graphs?k=2", csrb.Bytes())
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), want) {
		t.Errorf("POST /v1/graphs (csrb): status %d, body %s; want 400 naming %q", resp.StatusCode, data, want)
	}
}
