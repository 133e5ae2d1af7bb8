// Boundary k-way refinement (the BKWAY policy): the paper's §3.3 insight —
// only boundary vertices ever move, so restricting the search to the
// boundary buys KL-quality cuts at a fraction of the cost — applied to the
// direct k-way path. It is the only k-way refinement kernel: the direct
// k-way V-cycle, the KWayRefine pass after recursive bisection, the extra
// cycles of the eco/strong presets, repartitioning and session repair all
// run it. Rather than sweep every vertex of the graph on every pass, it
// keeps the connectivity of the boundary current across moves, as METIS's
// k-way refinement does, and a pass never reads an adjacency list except
// to update the neighbours of a vertex it moves.
//
// Connectivity: every vertex v has id[v], the weight of its edges inside
// its own part, and every boundary vertex a list of (adjacent part,
// degree) pairs — one per other part it has an edge into, with the total
// weight of those edges. The lists live in one pool, v's in a slot at
// off[v] holding cnt[v] pairs; v is on the boundary exactly when
// cnt[v] > 0. The lists are built in one sweep over the adjacency lists.
// A slot is first sized to the parts its vertex touches — a mesh boundary
// vertex touches one or two parts of its dozen neighbours' — and the pool
// starts at min(Σ_v min(deg(v), k-1), 2·Cut) pairs, a bound on the pairs
// of any partition of the graph with that cut. When a vertex first
// touches one part more (or, interior at the build, joins the boundary),
// its pairs move to a fresh slot of min(deg(v), k-1) pairs, all it can
// ever need, at the end of the pool, which grows by half when full. A
// move of v from part a to part b turns v's pair for b into (a, id[v]) —
// or drops it when id[v] was 0 — and shifts each neighbour's id and its
// pairs for a and b in place.
//
// Each pass is a propose/commit protocol:
//
//  1. Snapshot: the current boundary is captured and permuted with a
//     pass-derived seed.
//  2. Propose (parallelizable): for every snapshot vertex, the best
//     admissible target part is read off its pair list, in O(adjacent
//     parts), against the start-of-pass state. Proposals read shared
//     state but write only their own vertex's slots of bestTo and
//     settled, so the phase splits across a worker pool without locks.
//     A vertex whose every pair has negative gain proposes no move
//     whatever the part weights are; it is marked settled and skipped
//     by later passes until a move of it or of a neighbour — the only
//     changes to its pairs — clears the mark.
//  3. Commit (serial, in snapshot order): every proposal is re-validated
//     against the live state — the target must still be in the vertex's
//     list, its gain is read from it, the balance constraint re-checked —
//     and applied only if still profitable.
//
// The order of a pair list is arbitrary (removal swaps in the last pair),
// and it does not matter: the proposed target is the maximum, over the
// eligible parts, by (gain, lighter part, lower part id) — a total order —
// and eligibility (positive gain, or zero gain that strictly improves the
// weight spread) is closed upward in that order, so any scan order finds
// the same part. Because proposals are also independent of how the
// snapshot is chunked across workers, and commits happen in one fixed
// order, the result is bit-identical for every worker count: Workers=0 is
// the deterministic golden reference and Workers=N is the same partition,
// faster.
package refine

import (
	"sync"
	"time"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/metrics"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// KWayOptions configures boundary k-way refinement (RefineKWay).
type KWayOptions struct {
	// MaxPasses bounds the number of propose/commit passes (0 means 8).
	MaxPasses int
	// Ubfactor is the allowed imbalance per part; metrics.Ubfactor
	// resolves the default.
	Ubfactor float64
	// Seed drives the per-pass visit permutations; a fixed seed fixes the
	// result bit-for-bit.
	Seed int64
	// Workers is the propose-phase fan-out; <= 1 proposes serially. The
	// result is bit-identical for every worker count — commits are always
	// serial in snapshot order — so Workers is a scheduling knob, never a
	// quality one.
	Workers int
	// Workspace supplies scratch for every array the engine needs; the
	// move loop then runs allocation-free in steady state, and a caller
	// that refines repeatedly (a session) keeps its arrays between calls.
	// Nil means a fresh arena for this call. Results are identical either
	// way.
	Workspace *workspace.Workspace
	// Level is the hierarchy level reported in trace events (engine-set).
	Level int
	// Tracer, when non-nil, receives one KindPass event per pass with the
	// boundary size, moves and resulting cut. Results are bit-identical
	// with or without a tracer.
	Tracer trace.Tracer
	// Counters, when non-nil, accumulates pass and move totals.
	Counters *trace.Counters
	// Injector, when non-nil, is consulted at every pass boundary
	// (faults.SiteKWayPass); an injected error abandons the remaining
	// passes, keeping the moves committed so far.
	Injector *faults.Injector
}

func (o KWayOptions) withDefaults() KWayOptions {
	if o.MaxPasses <= 0 {
		o.MaxPasses = 8
	}
	o.Ubfactor = metrics.Ubfactor(o.Ubfactor)
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// splitmix64 is the per-pass permutation generator: a tiny value-type PRNG
// so the move loop stays allocation-free (math/rand.New allocates).
type splitmix64 struct{ x uint64 }

func (s *splitmix64) next() uint64 {
	s.x += 0x9E3779B97F4A7C15
	z := s.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// passRNG returns the permutation generator of a refinement seeded with
// seed.
func passRNG(seed int64) splitmix64 {
	return splitmix64{x: uint64(seed)*0x9E3779B97F4A7C15 + 0x94D049BB133111EB}
}

// intn returns a value in [0, n). The modulo bias is negligible at any
// boundary size this engine sees and keeps the draw branch-free.
func (s *splitmix64) intn(n int) int {
	return int(s.next() % uint64(n))
}

// kwayRefiner is the engine state: the boundary set over the k-way
// partition, the connectivity lists that define it, and the proposed move
// of every snapshot vertex. Every array is drawn from ws.
type kwayRefiner struct {
	p  *kway.Partition
	ws *workspace.Workspace
	kwayLists
	// room[v] is the pair capacity of v's slot, 0 before v has one.
	room []int
	// used is the number of pool pairs handed out as slots.
	used int
	// Boundary set with O(1) insert/remove/membership.
	bndList  []int
	bndIndex []int
	// bestTo[v] is the proposed target part of snapshot vertex v, -1 when
	// no admissible move exists.
	bestTo []int
	// settled[v] marks a boundary vertex with no pair of gain >= 0 since
	// its last proposal: it proposes -1 under any part weights, so propose
	// skips it. The mark speaks only of cut-reducing moves; a balance
	// repair inside the kernel must not read it.
	settled []bool
}

// kwayLists is the connectivity the refiner keeps current across moves:
// id[v] is the weight of v's edges inside its own part, and v's cnt[v]
// (part, degree) pairs are pairs off[v] .. off[v]+cnt[v]-1 of the pool,
// pair i being pairPart[i] (an adjacent part other than v's own) and
// pairDeg[i] (the weight of v's edges into it). off[v] is meaningful only
// once v has a slot. The pool is two arrays rather than one of
// interleaved pairs so that each is no longer than a graph's adjacency
// array: the workspace then backs them with the arrays of coarse levels
// already released. The propose workers receive kwayLists by value: they
// only read it.
type kwayLists struct {
	id       []int
	off      []int
	cnt      []int
	pairPart []int
	pairDeg  []int
}

func (r *kwayRefiner) bndInsert(v int) {
	if r.bndIndex[v] >= 0 {
		return
	}
	r.bndIndex[v] = len(r.bndList)
	r.bndList = append(r.bndList, v)
}

func (r *kwayRefiner) bndRemove(v int) {
	i := r.bndIndex[v]
	if i < 0 {
		return
	}
	last := len(r.bndList) - 1
	r.bndList[i] = r.bndList[last]
	r.bndIndex[r.bndList[i]] = i
	r.bndList = r.bndList[:last]
	r.bndIndex[v] = -1
}

// bndFix re-derives v's boundary membership from its pair count.
func (r *kwayRefiner) bndFix(v int) {
	if r.cnt[v] > 0 {
		r.bndInsert(v)
	} else {
		r.bndRemove(v)
	}
}

// build computes id for every vertex and the pair lists of the initial
// boundary in one sweep over the adjacency lists. A vertex's edge weights
// are first summed per part into deg, with the parts listed in touched
// in the order the sweep first meets them; the sweep takes no branch on
// whether a neighbour shares the vertex's part, which on a boundary
// vertex would be a coin toss for the branch predictor. Then the part's
// own sum becomes id and the others, in first-touch order, its pairs,
// written straight into the pool. A slot is sized to the parts its vertex
// touches, and boundary vertices are inserted in ascending order. The
// pool starts at min(Σ_v min(deg(v), k-1), 2·Cut) pairs: no vertex
// touches more than min(deg(v), k-1) other parts, and each pair owns at
// least one directed cut edge of weight >= 1. A Cut below the truth, even
// a negative one, can only cost the copy of a grown pool: every new pair
// passes reserve.
func (r *kwayRefiner) build() {
	g := r.p.G
	where := r.p.Where
	bound := 0
	for v := range where {
		bound += min(g.Degree(v), r.p.K-1)
	}
	size := max(min(bound, 2*r.p.Cut), 0)
	r.pairPart = r.ws.Int(size)
	r.pairDeg = r.ws.Int(size)
	// deg is zero outside the vertex at hand; touched has room for every
	// part plus the slot the sweep writes past the last distinct one.
	deg := r.ws.IntFilled(r.p.K, 0)
	touched := r.ws.Int(r.p.K + 1)
	// The pool arrays are held in locals, reloaded only after a grow.
	pairPart, pairDeg := r.pairPart, r.pairDeg
	for v := range where {
		wgt := g.EdgeWeights(v)
		nt := 0
		for i, u := range g.Neighbors(v) {
			pu := where[u]
			touched[nt] = pu
			if deg[pu] == 0 {
				nt++
			}
			deg[pu] += wgt[i]
		}
		pv := where[v]
		r.id[v] = deg[pv]
		deg[pv] = 0
		o := r.used
		for _, q := range touched[:nt] {
			d := deg[q]
			if d == 0 {
				continue // v's own part
			}
			deg[q] = 0
			if r.used == len(pairPart) {
				r.reserve(1)
				pairPart, pairDeg = r.pairPart, r.pairDeg
			}
			pairPart[r.used] = q
			pairDeg[r.used] = d
			r.used++
		}
		c := r.used - o
		r.off[v] = o
		r.cnt[v] = c
		r.room[v] = c
		if c > 0 {
			r.bndInsert(v)
		}
	}
	r.ws.PutInt(deg)
	r.ws.PutInt(touched)
}

// relocate moves v's pairs to a fresh slot at the end of the pool of
// min(deg(v), k-1) pairs: as many parts as v can ever touch, so a vertex
// moves at most once. It runs when v first touches a part beyond those its
// slot was sized for — including the first one, for a vertex that was
// interior when the lists were built. The old slot is abandoned.
func (r *kwayRefiner) relocate(v int) {
	c := min(r.p.G.Degree(v), r.p.K-1)
	r.reserve(c)
	if n := r.cnt[v]; n > 0 {
		o := r.off[v]
		copy(r.pairPart[r.used:], r.pairPart[o:o+n])
		copy(r.pairDeg[r.used:], r.pairDeg[o:o+n])
	}
	r.off[v] = r.used
	r.room[v] = c
	r.used += c
}

// reserve makes room for c more pairs at the end of the pool, growing it
// by half (or to fit, if more) when full.
func (r *kwayRefiner) reserve(c int) {
	if r.used+c <= len(r.pairPart) {
		return
	}
	size := max(len(r.pairPart)*3/2, r.used+c)
	r.pairPart = r.grow(r.pairPart, size)
	r.pairDeg = r.grow(r.pairDeg, size)
}

// grow moves the used part of a pool array into a new one of the given
// size, releasing the old.
func (r *kwayRefiner) grow(s []int, size int) []int {
	grown := r.ws.Int(size)
	copy(grown, s[:r.used])
	r.ws.PutInt(s)
	return grown
}

// find returns the pool index of v's pair for part q, or -1 (always when
// v has no pairs, even before it has a slot).
func (r *kwayRefiner) find(v, q int) int {
	o := r.off[v]
	for j := o; j < o+r.cnt[v]; j++ {
		if r.pairPart[j] == q {
			return j
		}
	}
	return -1
}

// drop removes v's pair at pool index j, moving v's last pair into its
// place.
func (r *kwayRefiner) drop(v, j int) {
	r.cnt[v]--
	last := r.off[v] + r.cnt[v]
	r.pairPart[j], r.pairDeg[j] = r.pairPart[last], r.pairDeg[last]
}

// addDeg adds w to v's degree into part q, appending a pair when q is new.
func (r *kwayRefiner) addDeg(v, q, w int) {
	if j := r.find(v, q); j >= 0 {
		r.pairDeg[j] += w
		return
	}
	if r.cnt[v] == r.room[v] {
		r.relocate(v)
	}
	j := r.off[v] + r.cnt[v]
	r.pairPart[j] = q
	r.pairDeg[j] = w
	r.cnt[v]++
}

// subDeg takes w off v's degree into part q, dropping the pair when the
// degree reaches zero. v must have a pair for q.
func (r *kwayRefiner) subDeg(v, q, w int) {
	j := r.find(v, q)
	r.pairDeg[j] -= w
	if r.pairDeg[j] == 0 {
		r.drop(v, j)
	}
}

// RefineKWay runs boundary k-way refinement on p in place and returns the
// final cut. See the package comment of this file for the connectivity
// lists and the propose/commit protocol; the result is deterministic for a
// fixed seed and identical for every Workers value.
func RefineKWay(p *kway.Partition, opts KWayOptions) int {
	opts = opts.withDefaults()
	g := p.G
	n := g.NumVertices()
	k := p.K
	if n == 0 || k < 2 {
		return p.Cut
	}
	bounds := kwayLimit(g, k, opts.Ubfactor)

	ws := opts.Workspace
	if ws == nil {
		ws = new(workspace.Workspace)
	}
	// r stays a stack value: the propose workers are named functions taking
	// explicit arguments, never closures over r, so the serial move loop
	// runs without a single heap allocation in steady state.
	r := newKWayRefiner(p, ws)
	// order holds the permuted boundary snapshot of the current pass.
	order := ws.Int(n)
	rng := passRNG(opts.Seed)

	for pass := 0; pass < opts.MaxPasses; pass++ {
		if ierr := opts.Injector.Fire(faults.SiteKWayPass); ierr != nil {
			// Abandon the remaining passes; everything committed so far is
			// a valid, balanced partition.
			break
		}
		bsize := len(r.bndList)
		if bsize == 0 {
			break
		}
		var t0 time.Time
		if opts.Tracer != nil {
			t0 = time.Now()
		}

		snap := r.snapshot(order, &rng)
		r.propose(opts.Workers, bounds)
		// Commit serially in snapshot order, re-validating every proposal
		// against the live state.
		moves, posGain := r.commit(snap, bounds)

		if opts.Counters != nil {
			opts.Counters.RefinePasses++
			opts.Counters.RefineMoves += moves
			opts.Counters.PositiveGainMoves += posGain
		}
		if opts.Tracer != nil {
			opts.Tracer.Event(trace.Event{
				Kind:              trace.KindPass,
				Level:             opts.Level,
				Pass:              pass,
				Moves:             moves,
				PositiveGainMoves: posGain,
				Boundary:          bsize,
				Cut:               p.Cut,
				Algorithm:         "BKWAY",
				ElapsedNS:         time.Since(t0).Nanoseconds(),
			})
		}
		if moves == 0 {
			break
		}
	}

	ws.PutInt(order)
	r.release()
	return p.Cut
}

// RepartitionKWay adapts p to its graph's current vertex weights: it
// rebalances against the incumbent partition orig (kway.Rebalance), then
// recovers the cut the diffusion moves lost with boundary k-way
// refinement, which respects the balance the rebalance established. It
// returns the final cut. mlpart.Repartition and the sessions' full repair
// tier both run it, so the two give one answer for one input. tr, when
// non-nil, receives the refinement's pass events; ws is the refinement's
// arena (nil means a fresh one for this call).
func RepartitionKWay(p *kway.Partition, orig []int, opts kway.RebalanceOptions, tr trace.Tracer, ws *workspace.Workspace) int {
	kway.Rebalance(p, orig, opts)
	return RefineKWay(p, KWayOptions{Ubfactor: opts.Ubfactor, Seed: opts.Seed, Tracer: tr, Workspace: ws})
}

// kwayLimit returns the part-weight bounds of a move at one level: a
// destination may grow to the imbalance factor times the target weight,
// but never less than one maximum vertex above target (heavy multinodes
// on coarse levels must stay movable), and a source may never be emptied.
func kwayLimit(g *graph.Graph, k int, ubfactor float64) metrics.Bounds {
	return metrics.PartBounds(g.TotalVertexWeight()/k, ubfactor, g.MaxVertexWeight())
}

// newKWayRefiner draws the engine state from ws and builds the
// connectivity of p's current partition.
func newKWayRefiner(p *kway.Partition, ws *workspace.Workspace) kwayRefiner {
	n := p.G.NumVertices()
	r := kwayRefiner{
		p:  p,
		ws: ws,
		kwayLists: kwayLists{
			id:  ws.Int(n),
			off: ws.Int(n),
			cnt: ws.Int(n),
		},
		room:     ws.Int(n),
		bndIndex: ws.IntFilled(n, -1),
		bndList:  ws.Int(n)[:0],
		bestTo:   ws.Int(n),
		settled:  ws.Bool(n),
	}
	r.build()
	return r
}

// release returns every array of the engine state to its workspace.
func (r *kwayRefiner) release() {
	for _, s := range [...][]int{r.id, r.off, r.cnt, r.room, r.pairPart, r.pairDeg, r.bndIndex, r.bndList, r.bestTo} {
		r.ws.PutInt(s)
	}
	r.ws.PutBool(r.settled)
}

// snapshot copies the boundary into order and permutes it (Fisher-Yates on
// a copy, so mid-pass boundary churn cannot perturb the visit order).
func (r *kwayRefiner) snapshot(order []int, rng *splitmix64) []int {
	snap := order[:len(r.bndList)]
	copy(snap, r.bndList)
	for i := len(snap) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		snap[i], snap[j] = snap[j], snap[i]
	}
	return snap
}

// propose fills bestTo for the boundary, serially or fanned out over up to
// workers goroutines (one per 512 vertices at most). A proposal depends on
// nothing but its vertex and the start-of-pass state, so it walks the
// boundary list — the snapshot's vertex set, in an order that keeps
// neighbouring vertices' lists close in memory — rather than the
// permuted snapshot, and chunking never changes results. Workers are named
// functions with explicit arguments (no closures), so the parallel
// machinery costs the serial path nothing; worker panics are captured on
// the worker's own stack and re-raised here after the join, because
// recover never runs across goroutines and an unhandled worker panic would
// kill the process.
func (r *kwayRefiner) propose(workers int, bounds metrics.Bounds) {
	bnd := r.bndList
	bsize := len(bnd)
	w := min(workers, bsize/512+1)
	if w <= 1 {
		kwayPropose(r.p, r.kwayLists, r.bestTo, r.settled, bnd, bounds)
		return
	}
	chunk := (bsize + w - 1) / w
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	for wi := 1; wi < w; wi++ {
		lo := wi * chunk
		hi := min(lo+chunk, bsize)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go kwayProposeWorker(&wg, &mu, &panicked, r.p, r.kwayLists, r.bestTo, r.settled, bnd[lo:hi], bounds)
	}
	kwayPropose(r.p, r.kwayLists, r.bestTo, r.settled, bnd[:chunk], bounds)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

func kwayProposeWorker(wg *sync.WaitGroup, mu *sync.Mutex, panicked *any,
	p *kway.Partition, l kwayLists, bestTo []int, settled []bool, snap []int, bounds metrics.Bounds) {
	defer wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			mu.Lock()
			if *panicked == nil {
				*panicked = rec
			}
			mu.Unlock()
		}
	}()
	kwayPropose(p, l, bestTo, settled, snap, bounds)
}

// kwayPropose sets bestTo[v] for the given boundary vertices: the
// admissible adjacent part with the highest gain (ties broken toward the
// lighter part, then the lower part id), or -1 when no move is worth
// committing. A settled vertex proposes -1 without reading its pairs, and
// a vertex whose pairs all have negative gain becomes settled. It reads
// v's pair list, never its adjacency, and writes only its own vertices'
// bestTo and settled slots, which is what makes chunking result-neutral.
func kwayPropose(p *kway.Partition, l kwayLists, bestTo []int, settled []bool, snap []int, bounds metrics.Bounds) {
	g := p.G
	for _, v := range snap {
		bestTo[v] = -1
		if settled[v] {
			continue
		}
		from := p.Where[v]
		vw := g.Vwgt[v]
		if p.Pwgt[from]-vw < bounds.Lo {
			// Never propose emptying a part.
			continue
		}
		id := l.id[v]
		o := l.off[v]
		best, bestG := -1, 0
		// top is the highest degree into another part: v is settled when
		// even that pair's gain, top - id, is negative.
		top := 0
		for j := o; j < o+l.cnt[v]; j++ {
			to := l.pairPart[j]
			top = max(top, l.pairDeg[j])
			if p.Pwgt[to]+vw > bounds.Hi {
				continue
			}
			gain := l.pairDeg[j] - id
			var better bool
			if best < 0 {
				// First candidate: positive gain, or zero gain that
				// strictly improves the weight spread.
				better = gain > 0 || (gain == 0 && p.Pwgt[to]+vw < p.Pwgt[from])
			} else {
				better = gain > bestG ||
					(gain == bestG && (p.Pwgt[to] < p.Pwgt[best] ||
						(p.Pwgt[to] == p.Pwgt[best] && to < best)))
			}
			if better {
				best, bestG = to, gain
			}
		}
		bestTo[v] = best
		settled[v] = top < id
	}
}

// commit applies the proposals in snapshot order and returns the moves
// made and how many had positive gain.
func (r *kwayRefiner) commit(snap []int, bounds metrics.Bounds) (moves, posGain int) {
	for _, v := range snap {
		if gain, ok := r.commitOne(v, bounds); ok {
			moves++
			if gain > 0 {
				posGain++
			}
		}
	}
	return moves, posGain
}

// commitOne applies v's proposal if it still pays. Earlier commits of the
// pass may have changed its gain or removed its target from v's list, so
// it is re-validated against the live list and balance: the move is made
// only if it still reduces the cut, or keeps it while strictly improving
// the weight spread. Returns the gain and whether v moved.
func (r *kwayRefiner) commitOne(v int, bounds metrics.Bounds) (gain int, ok bool) {
	p := r.p
	to := r.bestTo[v]
	if to < 0 {
		return 0, false
	}
	from := p.Where[v]
	vw := p.G.Vwgt[v]
	if p.Pwgt[to]+vw > bounds.Hi || p.Pwgt[from]-vw < bounds.Lo {
		return 0, false
	}
	j := r.find(v, to)
	if j < 0 {
		// The proposed target is no longer adjacent; a commit would only
		// grow the cut.
		return 0, false
	}
	gain = r.pairDeg[j] - r.id[v]
	if gain < 0 || (gain == 0 && p.Pwgt[to]+vw >= p.Pwgt[from]) {
		return 0, false
	}
	r.move(v, from, to, j)
	return gain, true
}

// move applies v's move from part from to part to, j being the index of
// v's pair for to: the partition vector, weights and cut, then the
// connectivity and boundary membership of v and its neighbours. Boundary
// updates follow the adjacency order, which fixes the next snapshot.
func (r *kwayRefiner) move(v, from, to, j int) {
	p := r.p
	g := p.G
	vw := g.Vwgt[v]
	id := r.id[v]
	p.Where[v] = to
	p.Pwgt[from] -= vw
	p.Pwgt[to] += vw
	p.Cut -= r.pairDeg[j] - id
	r.id[v] = r.pairDeg[j]
	r.settled[v] = false
	if id > 0 {
		r.pairPart[j], r.pairDeg[j] = from, id
	} else {
		r.drop(v, j)
	}
	r.bndFix(v)
	wgt := g.EdgeWeights(v)
	for i, u := range g.Neighbors(v) {
		w := wgt[i]
		r.settled[u] = false
		switch p.Where[u] {
		case from:
			r.id[u] -= w
			r.addDeg(u, to, w)
			r.bndInsert(u)
		case to:
			r.id[u] += w
			r.subDeg(u, from, w)
			r.bndFix(u)
		default:
			r.subDeg(u, from, w)
			r.addDeg(u, to, w)
		}
	}
}
