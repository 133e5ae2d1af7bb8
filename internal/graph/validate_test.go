package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// validateQuadratic is the reference definition of Validate: every entry
// (u,v,w), in scan order, is checked for range, self loop and weight, then
// u's list before it is searched for another v, then v's list is searched
// for its first u, whose weight (0 when absent) must equal w. It costs
// O(Σ deg²).
func validateQuadratic(g *Graph) error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("graph: Xadj must have length >= 1")
	}
	if g.Xadj[0] != 0 {
		return fmt.Errorf("graph: Xadj[0] = %d, want 0", g.Xadj[0])
	}
	if len(g.Vwgt) != n {
		return fmt.Errorf("graph: len(Vwgt) = %d, want n = %d", len(g.Vwgt), n)
	}
	for i := 0; i < n; i++ {
		if g.Xadj[i+1] < g.Xadj[i] {
			return fmt.Errorf("graph: Xadj decreasing at %d", i)
		}
		if g.Vwgt[i] <= 0 {
			return fmt.Errorf("graph: Vwgt[%d] = %d, want > 0", i, g.Vwgt[i])
		}
	}
	if g.Xadj[n] != len(g.Adjncy) {
		return fmt.Errorf("graph: Xadj[n] = %d, want len(Adjncy) = %d", g.Xadj[n], len(g.Adjncy))
	}
	if len(g.Adjwgt) != len(g.Adjncy) {
		return fmt.Errorf("graph: len(Adjwgt) = %d, want %d", len(g.Adjwgt), len(g.Adjncy))
	}
	if len(g.Adjncy)%2 != 0 {
		return fmt.Errorf("graph: odd number of directed edges %d", len(g.Adjncy))
	}
	for u := 0; u < n; u++ {
		adj := g.Neighbors(u)
		wgt := g.EdgeWeights(u)
		for i, v := range adj {
			if v < 0 || v >= n {
				return fmt.Errorf("graph: edge (%d,%d) out of range", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self loop at %d", u)
			}
			if wgt[i] <= 0 {
				return fmt.Errorf("graph: edge (%d,%d) weight %d, want > 0", u, v, wgt[i])
			}
			if slices.Contains(adj[:i], v) {
				return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
			}
			if back := g.EdgeWeight(v, u); back != wgt[i] {
				return fmt.Errorf("graph: asymmetric edge (%d,%d): %d vs %d", u, v, wgt[i], back)
			}
		}
	}
	return nil
}

// checkValidate fails t unless Validate and the quadratic reference agree
// on g: both nil, or errors with the same text.
func checkValidate(t *testing.T, g *Graph) {
	t.Helper()
	got, want := g.Validate(), validateQuadratic(g)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("Validate = %v, reference = %v\ngraph %+v", got, want, *g)
	}
}

// fuzzGraph decodes data into a graph with unit vertex weights: data[0]
// is n, then each vertex in turn takes a degree byte and that many
// (neighbour, weight) pairs of signed bytes, so neighbours may be
// negative or out of range and weights zero or negative. Input that runs
// out leaves the remaining vertices without neighbours.
func fuzzGraph(data []byte) *Graph {
	g := &Graph{Xadj: []int{0}}
	if len(data) == 0 {
		return g
	}
	n, data := int(data[0]%32), data[1:]
	for v := 0; v < n; v++ {
		if len(data) > 0 {
			d := int(data[0] % 16)
			data = data[1:]
			for ; d > 0 && len(data) >= 2; d-- {
				g.Adjncy = append(g.Adjncy, int(int8(data[0])))
				g.Adjwgt = append(g.Adjwgt, int(int8(data[1])))
				data = data[2:]
			}
		}
		g.Xadj = append(g.Xadj, len(g.Adjncy))
		g.Vwgt = append(g.Vwgt, 1)
	}
	return g
}

// encodeFuzzGraph is the inverse of fuzzGraph for graphs of fewer than 32
// vertices, degrees below 16 and entries that fit a signed byte.
func encodeFuzzGraph(n int, lists [][][2]int) []byte {
	data := []byte{byte(n)}
	for _, l := range lists {
		data = append(data, byte(len(l)))
		for _, e := range l {
			data = append(data, byte(int8(e[0])), byte(int8(e[1])))
		}
	}
	return data
}

// validateSeeds are the fuzz seeds, one per way a graph can fail the
// entry checks, plus a valid graph.
var validateSeeds = []struct {
	name  string
	n     int
	lists [][][2]int
}{
	{"valid-path", 3, [][][2]int{{{1, 1}}, {{0, 1}, {2, 4}}, {{1, 4}}}},
	{"missing-back-edge", 3, [][][2]int{{{1, 1}, {2, 1}}, {{0, 1}}, {{1, 1}}}},
	{"unequal-back-weight", 2, [][][2]int{{{1, 2}}, {{0, 3}}}},
	{"duplicate-entries", 2, [][][2]int{{{1, 2}, {1, 2}}, {{0, 2}, {0, 5}}}},
	{"duplicate-unequal-first", 2, [][][2]int{{{1, 2}, {1, 2}}, {{0, 5}, {0, 2}}}},
	{"duplicate-without-partner", 4, [][][2]int{{{1, 1}, {1, 1}}, {{0, 1}}, {{3, 1}, {3, 1}}, {{2, 1}}}},
	{"self-loop", 2, [][][2]int{{{0, 1}, {1, 1}}, {{0, 1}, {1, 1}}}},
	{"out-of-range", 2, [][][2]int{{{5, 1}}, {{0, 1}}}},
	{"negative-neighbour", 2, [][][2]int{{{-1, 1}}, {{0, 1}}}},
	{"zero-weight", 2, [][][2]int{{{1, 0}}, {{0, 0}}}},
	{"back-edge-after-bad-entry", 3, [][][2]int{{{1, 1}}, {{0, 1}, {7, 1}}, {}}},
	{"odd-entries", 2, [][][2]int{{{1, 1}}, {}}},
}

// FuzzValidate holds the linear Validate to its quadratic reference: on
// any graph both accept, or both reject with the same text.
func FuzzValidate(f *testing.F) {
	for _, s := range validateSeeds {
		f.Add(encodeFuzzGraph(s.n, s.lists))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkValidate(t, fuzzGraph(data))
	})
}

// TestValidateMatchesQuadratic compares Validate with the reference on
// random graphs larger than the fuzz decoder builds, valid and with one
// entry's neighbour or weight changed.
func TestValidateMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(2+rng.Intn(40), rng.Intn(120), 4, int64(trial))
		checkValidate(t, g)
		if len(g.Adjncy) == 0 {
			continue
		}
		j := rng.Intn(len(g.Adjncy))
		switch rng.Intn(3) {
		case 0:
			g.Adjncy[j] = rng.Intn(g.NumVertices()+2) - 1
		case 1:
			g.Adjwgt[j] = rng.Intn(6) - 1
		default:
			g.Adjncy[j], g.Adjwgt[j] = g.Adjncy[len(g.Adjncy)-1-j], g.Adjwgt[len(g.Adjncy)-1-j]
		}
		checkValidate(t, g)
	}
}
