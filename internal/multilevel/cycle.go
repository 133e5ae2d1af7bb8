package multilevel

import (
	"fmt"
	"math/rand"
	"time"

	"mlpart/internal/coarsen"
	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/refine"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// This file is the composable-cycle pipeline: the V-cycle decomposed into
// re-enterable phases — phaseCoarsen, phaseInitial, phaseSeed,
// phaseUncoarsenKWay — plus the iterated-cycle driver behind the
// eco/strong presets. The first cycle of a run is the classic coarsen →
// initial-partition → refine walk (runKWay composes it from the same
// phases); every extra cycle swaps phaseInitial for phaseSeed: the graph
// is re-coarsened *respecting* the current partition, which therefore
// projects onto the coarsest graph with exactly its fine-level cut (the
// contraction invariant), and boundary k-way refinement improves it at
// every level on the way back up.

// cycleBranch offsets the seed-derivation branch of extra cycles so they
// never collide with the recursion branches (2, 3) of the first cycle.
const cycleBranch int64 = 0x5EED

// kwayCoarsenTo is the coarsening threshold of a k-way hierarchy: at
// least 15*k coarse vertices, so the coarsest graph can host k parts.
func (e *engine) kwayCoarsenTo(k int) int { return max(e.opts.CoarsenTo, 15*k) }

// phaseCoarsen builds a hierarchy down to coarsenTo vertices and adds its
// time, levels and size to stats. Both
// the bisection V-cycle and the k-way cycles coarsen through it. respect,
// when non-nil, makes the coarsening partition-respecting (matchings never
// cross parts).
func (e *engine) phaseCoarsen(g *graph.Graph, coarsenTo int, respect []int, rng *rand.Rand, ws *workspace.Workspace, tr trace.Tracer, stats *Stats) *coarsen.Hierarchy {
	t0 := time.Now()
	copts := coarsen.Options{
		Scheme:           e.opts.Matching,
		CoarsenTo:        coarsenTo,
		MaxClusterWeight: e.opts.MaxClusterWeight,
		LPRounds:         e.opts.LPRounds,
		Workers:          e.opts.CoarsenWorkers,
		Respect:          respect,
		Workspace:        ws,
		Tracer:           tr,
		Injector:         e.inj,
		Degradations:     &stats.Degradations,
	}
	h := coarsen.Coarsen(g, copts, rng)
	stats.CoarsenTime += time.Since(t0)
	stats.Levels += len(h.Levels)
	if n := h.Coarsest().NumVertices(); n > stats.CoarsestN {
		stats.CoarsestN = n
	}
	return h
}

// phaseInitial partitions the coarsest graph into k parts by recursive
// bisection (cheap: the coarsest graph is tiny) and returns the coarse
// where-vector. Its inner trace events are suppressed — the cycle reports
// one KindInitial event for the whole step, plus the bisections'
// degradations — and its preset is forced to fast so the initial
// partition never recurses into iterated cycles.
func (e *engine) phaseInitial(h *coarsen.Hierarchy, k int, tr trace.Tracer, stats *Stats) ([]int, error) {
	t0 := time.Now()
	initOpts := e.opts
	initOpts.Parallel = false
	initOpts.KWayRefine = false
	initOpts.Tracer = nil
	initOpts.Preset = PresetFast
	initOpts.Cycles = 1
	coarse := h.Coarsest()
	cres, err := Partition(coarse, k, initOpts)
	if err != nil {
		return nil, err
	}
	stats.InitTime += time.Since(t0)
	stats.InitialCut = cres.EdgeCut
	stats.Bisections += k - 1
	// The bisections ran without the tracer; report their fallbacks here.
	degBase := len(stats.Degradations)
	stats.Degradations = append(stats.Degradations, cres.Stats.Degradations...)
	emitDegraded(tr, stats.Degradations, degBase)
	if tr != nil {
		tr.Event(trace.Event{
			Kind:      trace.KindInitial,
			Level:     len(h.Levels) - 1,
			Vertices:  coarse.NumVertices(),
			Cut:       cres.EdgeCut,
			Algorithm: "RB",
			ElapsedNS: time.Since(t0).Nanoseconds(),
		})
	}
	return cres.Where, nil
}

// phaseSeed is the skip-initial-partition mode of extra cycles: it
// projects an existing finest-level partition down the hierarchy onto the
// coarsest graph. Because the hierarchy was coarsened respecting that
// partition, every multinode is pure and the projected coarse partition
// has exactly the fine partition's cut. The returned where is pooled.
func (e *engine) phaseSeed(h *coarsen.Hierarchy, where []int, ws *workspace.Workspace) []int {
	cur := ws.Int(h.Levels[0].Graph.NumVertices())
	copy(cur, where)
	for li := 0; li+1 < len(h.Levels); li++ {
		cmap := h.Levels[li].Cmap
		nxt := ws.Int(h.Levels[li+1].Graph.NumVertices())
		for v, c := range cmap {
			nxt[c] = cur[v]
		}
		ws.PutInt(cur)
		cur = nxt
	}
	return cur
}

// phaseUncoarsenKWay refines the coarsest k-way partition, then projects
// and refines level by level up to the finest graph. Each projection
// carries the part weights and cut over from the coarser level, so a level
// reads its adjacency lists once, in the refiner's build. It takes ownership
// of where (pooled or fresh) and returns the finest-level where (pooled)
// and its cut, which the refiner keeps current; on cancellation it
// releases where and returns nil, 0, false. The hierarchy itself is not
// released.
func (e *engine) phaseUncoarsenKWay(h *coarsen.Hierarchy, k int, where []int, seed int64, ws *workspace.Workspace, stats *Stats, tr trace.Tracer) ([]int, int, bool) {
	kopts := refine.KWayOptions{Ubfactor: e.opts.Ubfactor, Seed: seed, Workspace: ws, Tracer: tr, Counters: &stats.Counters}
	t0 := time.Now()
	p := kway.NewPartition(h.Coarsest(), k, where)
	kopts.Level = len(h.Levels) - 1
	e.guardedKWayRefine(p, kopts, stats, tr)
	stats.RefineTime += time.Since(t0)
	ok := e.uncoarsen(h, ws, stats, tr, func(li int) int {
		fine := h.Levels[li].Graph
		cmap := h.Levels[li].Cmap
		fineWhere := ws.Int(fine.NumVertices())
		for v := range fineWhere {
			fineWhere[v] = where[cmap[v]]
		}
		ws.PutInt(where)
		where = fineWhere
		// The contraction invariant fixes the fine part weights and cut
		// to the coarse ones; the refiner's build reads the adjacency.
		p = &kway.Partition{G: fine, K: k, Where: where, Pwgt: p.Pwgt, Cut: p.Cut}
		return p.Cut
	}, func(li int) {
		kopts.Level = li
		e.guardedKWayRefine(p, kopts, stats, tr)
	})
	if !ok {
		ws.PutInt(where)
		return nil, 0, false
	}
	return where, p.Cut, true
}

// vCycle runs one extra multilevel cycle seeded from seedWhere: coarsen
// respecting the partition, project it to the coarsest graph, refine with
// BKWAY at every level on the way up. It returns a where-vector drawn from
// ws, which the caller releases, and its cut as the refiner kept it.
// Failures (injected via the "cycle" site or organic panics) surface as
// errors for the caller's degradation ladder; they never propagate a
// panic.
func (e *engine) vCycle(g *graph.Graph, k int, seedWhere []int, seed int64, ws *workspace.Workspace) (where []int, cut int, stats *Stats, err error) {
	stats = &Stats{}
	defer func() {
		if r := recover(); r != nil {
			where, cut, err = nil, 0, faults.AsPanic(faults.SiteCycle, r)
		}
	}()
	if ierr := e.inj.Fire(faults.SiteCycle); ierr != nil {
		return nil, 0, stats, ierr
	}
	tr := trace.WithSeed(e.tracer, seed)
	rng := rand.New(rand.NewSource(seed))
	h := e.phaseCoarsen(g, e.kwayCoarsenTo(k), seedWhere, rng, ws, tr, stats)
	emitDegraded(tr, stats.Degradations, 0)
	if cerr := e.ctx.Err(); cerr != nil {
		h.Release(ws)
		return nil, 0, stats, cerr
	}
	cw := e.phaseSeed(h, seedWhere, ws)
	fw, cut, ok := e.phaseUncoarsenKWay(h, k, cw, seed, ws, stats, tr)
	if !ok {
		h.Release(ws)
		return nil, 0, stats, e.Err()
	}
	h.Release(ws)
	return fw, cut, stats, nil
}

// iterate is the cycle driver behind the eco/strong presets: after the
// first cycle has produced res, it runs CycleCount()-1 extra V-cycles,
// each seeded from the best partition so far with its own derived seed,
// and keeps the best cut. cut is res.Where's edge-cut as the refiner kept
// it, or -1 when the caller holds none and iterate must count it.
// Cancellation at a cycle boundary (or mid-cycle) returns the best
// completed partition silently — a full, valid result. Any other cycle
// failure degrades to the best completed partition, recorded in
// Stats.Degradations, never a hard error. Every cycle draws from ws, so
// an extra cycle reuses the buffers of the one before.
func (e *engine) iterate(g *graph.Graph, k int, res *Result, cut int, ws *workspace.Workspace) {
	res.Stats.Cycles = 1
	cycles := e.opts.CycleCount()
	if cycles <= 1 || k < 2 || g.NumVertices() == 0 {
		return
	}
	tr := trace.WithSeed(e.tracer, e.opts.Seed)
	bestCut := cut
	if bestCut < 0 {
		bestCut = refine.ComputeCut(g, res.Where)
	}
	if tr != nil {
		tr.Event(trace.Event{Kind: trace.KindCycle, Cycle: 0, Cut: bestCut})
	}
	for c := 1; c < cycles; c++ {
		if e.ctx.Err() != nil {
			break
		}
		t0 := time.Now()
		where, cut, cstats, err := e.vCycle(g, k, res.Where, DeriveSeed(e.opts.Seed, cycleBranch+int64(c)), ws)
		if err != nil {
			if e.ctx.Err() != nil {
				break
			}
			noteDegradation(&res.Stats, tr, trace.Degradation{
				Phase:  "cycle",
				From:   fmt.Sprintf("cycle-%d", c),
				To:     "best-completed",
				Reason: err.Error(),
			})
			break
		}
		res.Stats.add(cstats)
		res.Stats.Cycles++
		if tr != nil {
			tr.Event(trace.Event{
				Kind:      trace.KindCycle,
				Cycle:     c,
				Cut:       cut,
				ElapsedNS: time.Since(t0).Nanoseconds(),
			})
		}
		// Refinement never worsens the seed it started from, so the new
		// cut is at most bestCut; adopt strict improvements only to keep
		// the best partition stable under ties.
		if cut < bestCut {
			bestCut = cut
			copy(res.Where, where)
		}
		ws.PutInt(where)
	}
}
