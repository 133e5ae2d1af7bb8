// Package refine implements the uncoarsening/refinement phase of the
// multilevel scheme (§3.3 of the paper): a two-way partition state with
// incremental gain bookkeeping, the Kernighan-Lin/Fiduccia-Mattheyses pass
// engine, and the five refinement policies the paper evaluates — GR, KLR,
// BGR, BKLR and the hybrid BKLGR.
package refine

import (
	"fmt"

	"mlpart/internal/graph"
	"mlpart/internal/metrics"
	"mlpart/internal/workspace"
)

// Bisection is a 2-way partition of a graph together with the incremental
// state refinement needs: per-part weights, per-vertex internal and
// external degrees, the current edge-cut, and the boundary vertex set.
//
// For a vertex v in part p, ID[v] is the total weight of edges to vertices
// in p and ED[v] the total weight of edges to the other part. The gain of
// moving v is ED[v] - ID[v], and v is a boundary vertex iff ED[v] > 0.
type Bisection struct {
	G *graph.Graph
	// Where[v] is 0 or 1.
	Where []int
	// Pwgt[p] is the total vertex weight of part p.
	Pwgt [2]int
	// ID and ED are the weighted internal and external degrees.
	ID, ED []int
	// Cut is the current edge-cut (sum of weights of crossing edges).
	Cut int

	// Boundary set with O(1) insert/remove/membership.
	bndList  []int
	bndIndex []int // position of v in bndList, or -1
	// maxDeg is the graph's maximum weighted degree (ID[v]+ED[v] over v),
	// which bounds every gain: the gain buckets' range.
	maxDeg int
}

// NewBisection builds the full refinement state for the partition `where`
// of g. where is retained, not copied.
func NewBisection(g *graph.Graph, where []int) *Bisection {
	return NewBisectionWS(g, where, nil)
}

// NewBisectionWS is NewBisection drawing the state arrays from ws (a nil ws
// allocates). A pooled bisection is returned to ws with Release, or turned
// into an ordinary heap-owned one with Detach before it outlives the call
// that owns ws.
func NewBisectionWS(g *graph.Graph, where []int, ws *workspace.Workspace) *Bisection {
	n := g.NumVertices()
	b := &Bisection{
		G:        g,
		Where:    where,
		ID:       ws.Int(n),
		ED:       ws.Int(n),
		bndIndex: ws.Int(n),
		bndList:  ws.Int(n)[:0],
	}
	b.Recount()
	return b
}

// Recount rebuilds every derived field of b — part weights, degrees, cut,
// boundary and maximum degree — from G and Where alone, in place. It is
// the from-scratch sweep NewBisection runs, and how a caller restores the
// state after a refinement pass was abandoned mid-move.
func (b *Bisection) Recount() {
	g, where := b.G, b.Where
	b.Pwgt, b.Cut, b.maxDeg = [2]int{}, 0, 0
	b.bndList = b.bndList[:0]
	for v := range where {
		b.Pwgt[where[v]] += g.Vwgt[v]
		id, ed := 0, 0
		wgt := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if where[u] == where[v] {
				id += wgt[i]
			} else {
				ed += wgt[i]
			}
		}
		b.setDegrees(v, id, ed)
		b.Cut += ed
	}
	b.Cut /= 2
}

// setDegrees records v's internal and external degrees, appends v to the
// boundary when it has a cut edge, and folds its weighted degree into
// maxDeg. The from-scratch sweeps call it for v in ascending order, which
// fixes the boundary order.
func (b *Bisection) setDegrees(v, id, ed int) {
	b.ID[v], b.ED[v] = id, ed
	b.bndIndex[v] = -1
	if ed > 0 {
		b.bndInsert(v)
	}
	b.maxDeg = max(b.maxDeg, id+ed)
}

// Release returns the bisection's arrays — including Where — to ws; b must
// not be used afterwards. Only call it when every array was either drawn
// from the workspace or is otherwise dead. A no-op for a nil ws.
func (b *Bisection) Release(ws *workspace.Workspace) {
	if ws == nil {
		return
	}
	ws.PutInt(b.Where)
	ws.PutInt(b.ID)
	ws.PutInt(b.ED)
	ws.PutInt(b.bndIndex)
	ws.PutInt(b.bndList)
	b.Where, b.ID, b.ED, b.bndIndex, b.bndList = nil, nil, nil, nil, nil
}

// Detach copies b into freshly allocated arrays, releases the pooled ones
// to ws, and returns the copy — the escape hatch that upholds the pooling
// invariant (no workspace buffer outlives the call tree that obtained it)
// for the bisection a caller keeps. With a nil ws, b is returned unchanged.
func (b *Bisection) Detach(ws *workspace.Workspace) *Bisection {
	if ws == nil {
		return b
	}
	nb := &Bisection{
		G:        b.G,
		Where:    append([]int(nil), b.Where...),
		Pwgt:     b.Pwgt,
		ID:       append([]int(nil), b.ID...),
		ED:       append([]int(nil), b.ED...),
		Cut:      b.Cut,
		bndList:  append([]int(nil), b.bndList...),
		bndIndex: append([]int(nil), b.bndIndex...),
		maxDeg:   b.maxDeg,
	}
	b.Release(ws)
	return nb
}

// Gain returns the decrease in edge-cut if v moved to the other part.
func (b *Bisection) Gain(v int) int { return b.ED[v] - b.ID[v] }

// IsBoundary reports whether v has at least one edge crossing the cut.
func (b *Bisection) IsBoundary(v int) bool { return b.bndIndex[v] >= 0 }

// Boundary returns the current boundary vertices as a shared slice; callers
// must not modify it and must not hold it across moves.
func (b *Bisection) Boundary() []int { return b.bndList }

func (b *Bisection) bndInsert(v int) {
	if b.bndIndex[v] >= 0 {
		return
	}
	b.bndIndex[v] = len(b.bndList)
	b.bndList = append(b.bndList, v)
}

func (b *Bisection) bndRemove(v int) {
	i := b.bndIndex[v]
	if i < 0 {
		return
	}
	last := len(b.bndList) - 1
	b.bndList[i] = b.bndList[last]
	b.bndIndex[b.bndList[i]] = i
	b.bndList = b.bndList[:last]
	b.bndIndex[v] = -1
}

// Move transfers v to the other part, updating part weights, the cut, its
// own and its neighbors' degrees, and the boundary set. It returns the new
// cut. onGainChange, when non-nil, is invoked for every neighbor whose gain
// changed (after the update), letting refinement keep its priority
// structure in sync.
func (b *Bisection) Move(v int, onGainChange func(u int)) int {
	from := b.Where[v]
	to := 1 - from
	b.Where[v] = to
	b.Pwgt[from] -= b.G.Vwgt[v]
	b.Pwgt[to] += b.G.Vwgt[v]
	b.Cut -= b.Gain(v)
	// v's internal and external degrees swap.
	b.ID[v], b.ED[v] = b.ED[v], b.ID[v]
	if b.ED[v] > 0 {
		b.bndInsert(v)
	} else {
		b.bndRemove(v)
	}
	adj := b.G.Neighbors(v)
	wgt := b.G.EdgeWeights(v)
	for i, u := range adj {
		w := wgt[i]
		if b.Where[u] == to {
			// u gained an internal neighbor.
			b.ID[u] += w
			b.ED[u] -= w
		} else {
			b.ID[u] -= w
			b.ED[u] += w
		}
		if b.ED[u] > 0 {
			b.bndInsert(u)
		} else {
			b.bndRemove(u)
		}
		if onGainChange != nil {
			onGainChange(u)
		}
	}
	return b.Cut
}

// Balance returns max(Pwgt) / (total/2): 1.0 is perfect, larger is worse.
func (b *Bisection) Balance() float64 { return metrics.Balance(b.Pwgt[:]) }

// Verify recomputes all incremental state from scratch and returns an error
// if any field is inconsistent. For tests.
func (b *Bisection) Verify() error {
	fresh := NewBisection(b.G, append([]int(nil), b.Where...))
	if fresh.Cut != b.Cut {
		return fmt.Errorf("refine: cut %d, recomputed %d", b.Cut, fresh.Cut)
	}
	if fresh.Pwgt != b.Pwgt {
		return fmt.Errorf("refine: pwgt %v, recomputed %v", b.Pwgt, fresh.Pwgt)
	}
	if fresh.maxDeg != b.maxDeg {
		return fmt.Errorf("refine: max degree %d, recomputed %d", b.maxDeg, fresh.maxDeg)
	}
	for v := range b.Where {
		if fresh.ID[v] != b.ID[v] || fresh.ED[v] != b.ED[v] {
			return fmt.Errorf("refine: degrees of %d: id/ed %d/%d, recomputed %d/%d",
				v, b.ID[v], b.ED[v], fresh.ID[v], fresh.ED[v])
		}
		if fresh.IsBoundary(v) != b.IsBoundary(v) {
			return fmt.Errorf("refine: boundary flag of %d inconsistent", v)
		}
	}
	return nil
}

// Project carries a coarse bisection up to the fine graph it was contracted
// from: fine vertex v inherits the part of its multinode cmap[v]. The
// contraction invariant — a multinode weighs what its fine vertices weigh,
// and a coarse edge what the fine edges it merges weigh — fixes the fine
// part weights and cut to the coarse ones, so they are copied, not
// recounted. The degrees are derived in one sweep that reads each fine
// adjacency list once, and the part of a neighbour only where the
// multinode was on the coarse boundary: a fine vertex of an interior
// multinode (ED == 0) is interior too, its internal degree its weighted
// degree. That takes edge weights > 0 and no self-loops, which
// Graph.Validate enforces. The result equals NewBisection of the
// projected partition field for field, boundary order included.
func Project(fine *graph.Graph, cmap []int, coarse *Bisection) *Bisection {
	return ProjectWS(fine, cmap, coarse, nil)
}

// ProjectWS is Project drawing the fine-level state from ws (a nil ws
// allocates). The coarse bisection is still intact afterwards; the caller
// typically Releases it once the projection is built.
func ProjectWS(fine *graph.Graph, cmap []int, coarse *Bisection, ws *workspace.Workspace) *Bisection {
	n := fine.NumVertices()
	b := &Bisection{
		G:        fine,
		Where:    ws.Int(n),
		Pwgt:     coarse.Pwgt,
		ID:       ws.Int(n),
		ED:       ws.Int(n),
		Cut:      coarse.Cut,
		bndIndex: ws.Int(n),
		bndList:  ws.Int(n)[:0],
	}
	where := b.Where
	for v := range where {
		where[v] = coarse.Where[cmap[v]]
	}
	for v := range where {
		id, ed := 0, 0
		wgt := fine.EdgeWeights(v)
		if coarse.ED[cmap[v]] == 0 {
			for _, w := range wgt {
				id += w
			}
		} else {
			for i, u := range fine.Neighbors(v) {
				if where[u] == where[v] {
					id += wgt[i]
				} else {
					ed += wgt[i]
				}
			}
		}
		b.setDegrees(v, id, ed)
	}
	return b
}

// ComputeCut returns the edge-cut of an arbitrary k-way partition vector
// without building refinement state.
func ComputeCut(g *graph.Graph, where []int) int {
	cut := 0
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		for i, u := range adj {
			if where[u] != where[v] {
				cut += wgt[i]
			}
		}
	}
	return cut / 2
}
