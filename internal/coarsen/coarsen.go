// Package coarsen implements the coarsening phase of the multilevel scheme
// (§3.1 of the paper): maximal matchings computed by one of four heuristics
// — random matching (RM), heavy-edge matching (HEM), light-edge matching
// (LEM) and heavy-clique matching (HCM) — and the contraction that collapses
// each matched pair into a multinode of the next-coarser graph. A second
// coarsening family, GCLP (size-constrained label-propagation clustering,
// gclp.go), groups vertices into arbitrary-size clusters instead of pairs,
// which keeps shrinking power-law graphs where maximal matchings stall. A
// matching is the size-2 case of a clustering, so one kernel (contract)
// contracts both.
//
// Contraction preserves the evaluation invariant the paper relies on: a
// partition of the coarse graph has exactly the same edge-cut as the
// corresponding partition of the fine graph, because multinode vertex
// weights are the sums of their constituents and parallel edges collapse by
// summing weights. It follows that W(E_{i+1}) = W(E_i) - W(M_i).
package coarsen

import (
	"fmt"
	"math/rand"
	"time"

	"mlpart/internal/enum"
	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// Scheme selects the coarsening heuristic used at each level: one of the
// paper's four matchings, or the GCLP cluster aggregation.
type Scheme int

const (
	// RM visits vertices in random order and matches each with a random
	// unmatched neighbor.
	RM Scheme = iota
	// HEM matches each vertex with the unmatched neighbor connected by the
	// heaviest edge, maximizing the matching weight removed from the graph.
	HEM
	// LEM matches across the lightest incident edge, minimizing the weight
	// removed (used by the paper as a control; it raises the coarse graph's
	// average degree).
	LEM
	// HCM matches the pair whose merged multinode has the highest edge
	// density, approximating coarsening by highly-connected components.
	HCM
	// GCLP groups vertices into arbitrary-size clusters by size-constrained
	// label propagation and contracts whole clusters, not pairs. On
	// power-law graphs (social networks, web graphs) maximal matchings
	// leave most vertices unmatched around hubs and coarsening stalls; GCLP
	// lets a hub absorb many leaves per level, so the hierarchy keeps
	// shrinking. See gclp.go.
	GCLP
)

// Scheme families as reported by SchemeInfo.Family.
const (
	// FamilyMatching marks the paper's pairwise matchings (RM, HEM, LEM,
	// HCM): each level at best halves the vertex count.
	FamilyMatching = "matching"
	// FamilyAggregation marks cluster coarseners (GCLP): each level can
	// shrink the graph by an arbitrary factor bounded by the cluster
	// weight cap.
	FamilyAggregation = "aggregation"
)

// schemeNames is the schemes' name table: their abbreviations as used in
// the paper (GCLP is this package's extension).
var schemeNames = enum.Names[Scheme]{RM: "RM", HEM: "HEM", LEM: "LEM", HCM: "HCM", GCLP: "GCLP"}

// schemeDescriptions holds each scheme's one-line description for
// discovery surfaces.
var schemeDescriptions = [...]string{
	RM:   "random matching: match each vertex with a random unmatched neighbor",
	HEM:  "heavy-edge matching: match across the heaviest incident edge (the paper's choice)",
	LEM:  "light-edge matching: match across the lightest incident edge (the paper's control)",
	HCM:  "heavy-clique matching: match the pair with the densest merged multinode",
	GCLP: "size-constrained label-propagation clustering: contract arbitrary-size clusters, built for power-law graphs where matchings stall",
}

// String returns the scheme's abbreviation.
func (s Scheme) String() string { return schemeNames.Name(s) }

// Family returns the scheme's family: FamilyMatching for the pairwise
// matchings, FamilyAggregation for GCLP.
func (s Scheme) Family() string {
	if s == GCLP {
		return FamilyAggregation
	}
	return FamilyMatching
}

// Valid reports whether s is one of the defined schemes; MatchWS panics on
// anything else, so user-reachable entry points must gate on this.
func (s Scheme) Valid() bool { return schemeNames.Valid(s) }

// ParseScheme converts an abbreviation (any case, surrounding whitespace
// ignored: "hem" and " HEM " both parse) to a Scheme.
func ParseScheme(s string) (Scheme, error) {
	if sc, ok := schemeNames.Parse(s); ok {
		return sc, nil
	}
	return 0, fmt.Errorf("coarsen: unknown coarsening scheme %q (want %v)", s, schemeNames)
}

// SchemeInfo describes one coarsening scheme for discovery surfaces: the
// CLI help text, mlbench tables and the service's /v1/capabilities endpoint
// all render the same table instead of hardcoding scheme lists.
type SchemeInfo struct {
	Scheme      Scheme
	Name        string
	Description string
	Family      string
}

// AllSchemes lists every supported coarsening scheme with its name,
// description and family, in Scheme order.
func AllSchemes() []SchemeInfo {
	out := make([]SchemeInfo, len(schemeNames))
	for i := range out {
		s := Scheme(i)
		out[i] = SchemeInfo{s, s.String(), schemeDescriptions[s], s.Family()}
	}
	return out
}

// MatchWS computes a maximal matching of g in O(|E|) using the given
// scheme. The result maps each vertex to its partner; unmatched vertices
// map to themselves. cew is the contracted edge weight of each vertex (the
// total weight of original edges already inside the multinode); it is only
// consulted by HCM and may be nil for the others or for level-0 graphs.
// Its scratch and the returned matching come from ws; the caller releases
// the result with ws.PutInt once contracted. A nil ws allocates.
//
// respect, when non-nil, assigns each vertex a group (typically its part in
// an existing partition) and restricts the matching to pairs inside one
// group. Matchings that never cross groups make the contraction
// partition-respecting: the existing partition projects onto the coarse
// graph with exactly the same cut, which is what lets an iterated
// multilevel cycle seed itself from the previous cycle's result.
func MatchWS(g *graph.Graph, scheme Scheme, cew, respect []int, rng *rand.Rand, ws *workspace.Workspace) []int {
	n := g.NumVertices()
	match := ws.IntFilled(n, -1)
	order := workspace.PermInto(rng, n, ws.Int(n))
	for _, u := range order {
		if match[u] >= 0 {
			continue
		}
		adj := g.Neighbors(u)
		wgt := g.EdgeWeights(u)
		pick := -1
		switch scheme {
		case RM:
			// First unmatched neighbor scanning from a random offset —
			// equivalent to the paper's randomly permuted adjacency lists,
			// and the cheapest scheme (one RNG call per vertex).
			if len(adj) > 0 {
				off := rng.Intn(len(adj))
				for t := 0; t < len(adj); t++ {
					v := adj[(off+t)%len(adj)]
					if match[v] < 0 && v != u && (respect == nil || respect[v] == respect[u]) {
						pick = v
						break
					}
				}
			}
		case HEM:
			best := -1
			for i, v := range adj {
				if match[v] < 0 && wgt[i] > best && (respect == nil || respect[v] == respect[u]) {
					best = wgt[i]
					pick = v
				}
			}
		case LEM:
			best := int(^uint(0) >> 1)
			for i, v := range adj {
				if match[v] < 0 && wgt[i] < best && (respect == nil || respect[v] == respect[u]) {
					best = wgt[i]
					pick = v
				}
			}
		case HCM:
			best := -1.0
			for i, v := range adj {
				if match[v] >= 0 || (respect != nil && respect[v] != respect[u]) {
					continue
				}
				d := mergedDensity(g, cew, u, v, wgt[i])
				if d > best {
					best = d
					pick = v
				}
			}
		default:
			panic(fmt.Sprintf("coarsen: invalid scheme %d", scheme))
		}
		if pick >= 0 {
			match[u] = pick
			match[pick] = u
		} else {
			match[u] = u
		}
	}
	ws.PutInt(order)
	return match
}

// mergedDensity returns the edge density 2|E_U| / (|U|(|U|-1)) of the
// multinode formed by merging u and v, where |U| is the number of original
// vertices (the multinode weight) and |E_U| the total weight of original
// edges inside it.
func mergedDensity(g *graph.Graph, cew []int, u, v, w int) float64 {
	size := g.Vwgt[u] + g.Vwgt[v]
	if size < 2 {
		size = 2
	}
	inner := w
	if cew != nil {
		inner += cew[u] + cew[v]
	}
	return 2 * float64(inner) / (float64(size) * float64(size-1))
}

// ContractWS builds the next-coarser graph induced by a matching, the
// size-2 case of contract, and returns it with the vertex map cmap (fine
// vertex -> coarse vertex) and the coarse contracted-edge-weight array
// (needed by HCM at deeper levels); cew may be nil, meaning all-zero. An
// unmatched vertex is spelled match[v] == v or match[v] < 0.
//
// ContractWS consumes match: it rewrites it in place into contract's member
// chain, so a caller that still needs the matching passes a copy. Scratch
// and the returned arrays come from ws and are owned by the caller (Coarsen
// releases them through Hierarchy.Release); a nil ws allocates. Either way
// the arrays have their exact sizes.
func ContractWS(g *graph.Graph, match []int, cew []int, ws *workspace.Workspace) (*graph.Graph, []int, []int) {
	cmap, cn := pairClusters(match, ws)
	cg, ccew := contract(g, cmap, cn, match, cew, ws)
	return cg, cmap, ccew
}

// pairClusters numbers a matching's multinodes in representative order,
// which is first-member order, and rewrites match in place into their
// member chain: a representative keeps its partner, every other vertex
// becomes -1. It returns the cluster map (from ws) and the count.
func pairClusters(match []int, ws *workspace.Workspace) ([]int, int) {
	cmap := ws.Int(len(match))
	cn := 0
	for v, m := range match {
		switch {
		case m > v:
			cmap[v], cmap[m] = cn, cn
			cn++
		case m >= 0 && m < v:
			match[v] = -1 // numbered with its representative m
		default:
			cmap[v] = cn
			cn++
			match[v] = -1
		}
	}
	return cmap, cn
}

// contract is the one contraction kernel behind every coarsening scheme: it
// collapses each cluster of a clustering into one multinode of the
// next-coarser graph. cmap maps every fine vertex to its cluster in
// [0,cn), numbered in first-member order (cluster c's smallest member comes
// before cluster c+1's), and next chains each cluster's members in
// ascending order (next[v] is the next larger member of v's cluster, or
// -1). A multinode weighs the sum of its members, lists its coarse
// neighbours in the order the sweep over its members first meets them with
// parallel edges summed, and its contracted edge weight is its members'
// plus the weight of the edges inside the cluster.
//
// It returns the coarse graph and the coarse contracted-edge-weight array;
// cew may be nil, meaning all-zero. Scratch and the returned arrays come
// from ws (a nil ws allocates) and have their exact sizes.
func contract(g *graph.Graph, cmap []int, cn int, next, cew []int, ws *workspace.Workspace) (*graph.Graph, []int) {
	n := g.NumVertices()
	cvwgt := ws.Int(cn)
	ccew := ws.Int(cn)
	// Stage the coarse adjacency at its upper bound — the fine graph's total
	// degree — dedup in place, and trim afterwards: the staging pair's tail
	// goes back to ws, so a coarse graph pins only what it uses.
	ub := len(g.Adjncy)
	cadjncy := ws.Int(ub)
	cadjwgt := ws.Int(ub)

	// htable[c] is the position in cadjncy at which coarse neighbour c was
	// last listed, or -1. Positions below start belong to coarse vertices
	// already built, so c is in the current vertex's list exactly when
	// htable[c] >= start, and the table needs no reset between vertices.
	htable := ws.IntFilled(cn, -1)
	cxadj := ws.Int(cn + 1)
	cxadj[0] = 0
	pos, cv := 0, 0
	for v := 0; v < n; v++ {
		if cmap[v] != cv {
			continue // a later member, built with its cluster's first
		}
		start := pos
		vw, ce, internal := 0, 0, 0
		for u := v; u >= 0; u = next[u] {
			vw += g.Vwgt[u]
			if cew != nil {
				ce += cew[u]
			}
			wgt := g.EdgeWeights(u)
			for i, w := range g.Neighbors(u) {
				c := cmap[w]
				if c == cv {
					// Internal edge of the multinode, seen from both
					// endpoints and halved below.
					internal += wgt[i]
					continue
				}
				if p := htable[c]; p >= start {
					cadjwgt[p] += wgt[i]
				} else {
					htable[c] = pos
					cadjncy[pos] = c
					cadjwgt[pos] = wgt[i]
					pos++
				}
			}
		}
		cvwgt[cv] = vw
		ccew[cv] = ce + internal/2
		cv++
		cxadj[cv] = pos
	}
	if cv != cn {
		panic(fmt.Sprintf("coarsen: %d of %d clusters are not numbered in first-member order", cn-cv, cn))
	}
	ws.PutInt(htable)

	cg := &graph.Graph{
		Xadj:   cxadj,
		Adjncy: ws.TrimInt(cadjncy, pos),
		Adjwgt: ws.TrimInt(cadjwgt, pos),
		Vwgt:   cvwgt,
	}
	return cg, ccew
}

// Level is one rung of the coarsening hierarchy: the graph at this level
// and the map from its vertices to the next-coarser level's vertices.
type Level struct {
	Graph *graph.Graph
	// Cmap maps this level's vertices to the next (coarser) level's
	// vertices; nil on the coarsest level.
	Cmap []int
}

// Hierarchy is the sequence of graphs G_0 (finest) .. G_m (coarsest)
// produced by repeated matching and contraction.
type Hierarchy struct {
	Levels []Level
	// pooled records whether the level arrays (except the finest graph,
	// which belongs to the caller) came from a workspace.
	pooled bool
}

// Coarsest returns the last (smallest) graph of the hierarchy.
func (h *Hierarchy) Coarsest() *graph.Graph {
	return h.Levels[len(h.Levels)-1].Graph
}

// Pop drops the coarsest level once uncoarsening has projected past it,
// returning its graph and the cmap leading to it to ws when the hierarchy
// is pooled; the next-coarser level becomes the coarsest. The finest graph
// is never popped.
func (h *Hierarchy) Pop(ws *workspace.Workspace) {
	last := len(h.Levels) - 1
	if last < 1 {
		return
	}
	if ws != nil && h.pooled {
		h.Levels[last].Graph.Release(ws)
		ws.PutInt(h.Levels[last-1].Cmap)
	}
	h.Levels[last-1].Cmap = nil
	h.Levels = h.Levels[:last]
}

// Release returns every pooled array of the hierarchy — the coarse graphs
// and all cmaps, but never the caller-owned finest graph — to ws, leaving h
// empty. It is a no-op for hierarchies built without a workspace. The
// caller must not touch any level after Release.
func (h *Hierarchy) Release(ws *workspace.Workspace) {
	if ws == nil || !h.pooled {
		return
	}
	for i := range h.Levels {
		if h.Levels[i].Cmap != nil {
			ws.PutInt(h.Levels[i].Cmap)
		}
		if i > 0 {
			h.Levels[i].Graph.Release(ws)
		}
	}
	h.Levels = nil
}

// Options configures Coarsen.
type Options struct {
	// Scheme is the coarsening heuristic (default RM for the zero value).
	Scheme Scheme
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices. The paper coarsens "down to a few hundred vertices";
	// callers typically pass 100.
	CoarsenTo int
	// MaxClusterWeight caps the total vertex weight of one GCLP cluster.
	// <= 0 derives the cap from the finest graph: total weight divided by
	// CoarsenTo, which guarantees the coarsest graph keeps at least
	// ~CoarsenTo vertices however aggressively clusters grow. Ignored by
	// the matching schemes.
	MaxClusterWeight int
	// LPRounds is the number of label-propagation propose/commit rounds
	// GCLP runs per level (<= 0 means 8). Propagation also stops early the
	// first round no vertex moves. Ignored by the matching schemes.
	LPRounds int
	// Workers chunks GCLP's label-propagation propose phase over that many
	// goroutines (<= 1 runs it inline). It is scheduling only: proposals
	// read the previous round's labels and commits are serial, so the
	// hierarchy is bit-identical for every worker count. The matching
	// schemes are sequential and ignore it.
	Workers int
	// MaxLevels bounds the number of coarsening levels (safety net for
	// graphs that barely contract); <=0 means no bound.
	MaxLevels int
	// Respect, when non-nil, maps each finest-level vertex to a group
	// (typically its part in an existing partition). Matchings never cross
	// groups, so the grouping projects exactly onto every coarse level —
	// the prerequisite for seeding an iterated multilevel cycle from a
	// previous partition. The slice is caller-owned and never released.
	Respect []int
	// Workspace, when non-nil, supplies pooled scratch buffers and backs
	// the hierarchy's own arrays; the caller must call Hierarchy.Release
	// when done with the hierarchy. Results are identical either way.
	Workspace *workspace.Workspace
	// Tracer, when non-nil, receives one KindLevel event for the finest
	// graph and one per contraction (vertices, edges, matching rate, wall
	// time). Results are bit-identical with or without a tracer.
	Tracer trace.Tracer
	// Injector, when non-nil, is consulted at the coarsening fault sites:
	// faults.SiteCoarsenLevel at each level boundary (an injected error
	// stops coarsening early, leaving a valid but shallower hierarchy)
	// and faults.SiteCoarsenMatch after each matching (an injected error
	// forces the stall path). A nil Injector costs one nil check.
	Injector *faults.Injector
	// Degradations, when non-nil, receives a record for every graceful
	// fallback taken — a stalled HCM or GCLP level retried as HEM.
	Degradations *[]trace.Degradation
}

// emitLevel reports a new hierarchy level to tr. fine is the level the
// contraction started from (nil for the finest level's own event); scheme
// is the heuristic that produced the contraction (after any stall
// fallback), carried in the event's Algorithm field.
func emitLevel(tr trace.Tracer, level int, fine, cur *graph.Graph, scheme Scheme, elapsed time.Duration) {
	ev := trace.Event{
		Kind:      trace.KindLevel,
		Level:     level,
		Algorithm: scheme.String(),
		Vertices:  cur.NumVertices(),
		Edges:     cur.NumEdges(),
		ElapsedNS: elapsed.Nanoseconds(),
	}
	if fine != nil && fine.NumVertices() > 0 {
		if scheme == GCLP {
			// Fraction of the finer level's vertices absorbed into
			// clusters; pairs can't express arbitrary-size merges.
			ev.MatchRate = float64(fine.NumVertices()-cur.NumVertices()) / float64(fine.NumVertices())
		} else {
			// Fraction of the finer level's vertices absorbed into pairs.
			ev.MatchRate = 2 * float64(fine.NumVertices()-cur.NumVertices()) / float64(fine.NumVertices())
		}
	}
	tr.Event(ev)
}

// Coarsen builds the full hierarchy for g: cluster or match, contract,
// check for stalls, consult the fault injector at each level boundary.
// Coarsening stops when the graph has at most opts.CoarsenTo vertices, when
// a level shrinks the graph by less than 10% (matchings have become
// ineffective, e.g. star graphs), or when the graph has no edges left. A
// stalled HCM or GCLP level is retried once per level with HEM (recorded in
// opts.Degradations); only if HEM stalls too does coarsening stop early.
func Coarsen(g *graph.Graph, opts Options, rng *rand.Rand) *Hierarchy {
	if opts.CoarsenTo <= 0 {
		opts.CoarsenTo = 100
	}
	lp := lpConfig{maxWeight: opts.MaxClusterWeight, rounds: opts.LPRounds, workers: opts.Workers}
	if lp.maxWeight <= 0 {
		// Derived cap: clusters of at most total/CoarsenTo weight keep at
		// least ~CoarsenTo coarse vertices however fast GCLP aggregates.
		lp.maxWeight = max(g.TotalVertexWeight()/opts.CoarsenTo, 1)
	}
	if lp.rounds <= 0 {
		lp.rounds = defaultLPRounds
	}
	ws := opts.Workspace
	// step contracts one level under the given scheme. Every scheme yields
	// a clustering in first-member order with its member chain — GCLP's
	// label-propagation clusters, or the pairs of the paper's four
	// matchings — and one contraction kernel builds the coarse graph.
	step := func(cur *graph.Graph, scheme Scheme, cew, respect []int) (*graph.Graph, []int, []int) {
		var cmap, chain []int
		var cn int
		if scheme == GCLP {
			cmap, cn = clusterLPWS(cur, respect, lp, rng, ws)
			chain = clusterChain(cmap, cn, ws)
		} else {
			chain = MatchWS(cur, scheme, cew, respect, rng, ws)
			cmap, cn = pairClusters(chain, ws)
		}
		next, ccew := contract(cur, cmap, cn, chain, cew, ws)
		ws.PutInt(chain)
		return next, cmap, ccew
	}
	h := &Hierarchy{pooled: ws != nil}
	cur := g
	if opts.Tracer != nil {
		emitLevel(opts.Tracer, 0, nil, g, opts.Scheme, 0)
	}
	scheme := opts.Scheme
	var cew []int // zero at the finest level
	respect := opts.Respect
	respectPooled := false // the finest-level respect belongs to the caller
	for {
		h.Levels = append(h.Levels, Level{Graph: cur})
		if cur.NumVertices() <= opts.CoarsenTo || cur.NumEdges() == 0 {
			break
		}
		if opts.MaxLevels > 0 && len(h.Levels) > opts.MaxLevels {
			break
		}
		if opts.Injector.Fire(faults.SiteCoarsenLevel) != nil {
			// An injected error at the level boundary stops coarsening
			// early: the hierarchy so far is valid, just shallower.
			break
		}
		var t0 time.Time
		if opts.Tracer != nil {
			t0 = time.Now()
		}
		stallErr := opts.Injector.Fire(faults.SiteCoarsenMatch)
		next, cmap, ccew := step(cur, scheme, cew, respect)
		stalled := stallErr != nil || next.NumVertices() > cur.NumVertices()*9/10
		if stalled && (scheme == HCM || scheme == GCLP) {
			// HCM's density criterion can stop matching on graphs HEM
			// still coarsens (dense multinodes make every merge look bad),
			// and GCLP's weight cap can freeze label propagation once every
			// neighboring cluster is full. Fall back to HEM for this and
			// all deeper levels rather than abandoning the hierarchy at a
			// coarse size the initial partitioner handles poorly.
			next.Release(ws)
			ws.PutInt(cmap)
			ws.PutInt(ccew)
			reason := "matching stalled"
			if stallErr != nil {
				reason = stallErr.Error()
			} else if scheme == GCLP {
				reason = "clustering stalled"
			}
			if opts.Degradations != nil {
				*opts.Degradations = append(*opts.Degradations, trace.Degradation{
					Phase:  "coarsen",
					From:   scheme.String(),
					To:     HEM.String(),
					Level:  len(h.Levels) - 1,
					Reason: reason,
				})
			}
			scheme = HEM
			next, cmap, ccew = step(cur, scheme, cew, respect)
			stalled = next.NumVertices() > cur.NumVertices()*9/10
		}
		if stalled {
			// Coarsening stalled; further levels would waste time.
			next.Release(ws)
			ws.PutInt(cmap)
			ws.PutInt(ccew)
			break
		}
		if opts.Tracer != nil {
			emitLevel(opts.Tracer, len(h.Levels), cur, next, scheme, time.Since(t0))
		}
		h.Levels[len(h.Levels)-1].Cmap = cmap
		ws.PutInt(cew) // the previous level's cew is dead once contracted
		if respect != nil {
			// Project the grouping onto the coarse level. Well-defined
			// because neither matchings nor label propagation ever merge
			// vertices of different groups, so every fine vertex of a
			// multinode agrees on the group.
			cr := ws.Int(next.NumVertices())
			for v, c := range cmap {
				cr[c] = respect[v]
			}
			if respectPooled {
				ws.PutInt(respect)
			}
			respect = cr
			respectPooled = true
		}
		cur = next
		cew = ccew
	}
	ws.PutInt(cew)
	if respectPooled {
		ws.PutInt(respect)
	}
	return h
}
