package multilevel

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mlpart/internal/coarsen"
	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/initpart"
	"mlpart/internal/kway"
	"mlpart/internal/refine"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// splitSpec is the one thing that differs between uniform k-way recursion
// and weighted-fractions recursion: how many leaf parts a subproblem holds
// and what weight the left half-range targets. Everything else — the
// V-cycle, seed derivation, parallel fan-out, stats, tracing, cancellation
// — is shared by the engine.
//
// The two implementations keep their historical arithmetic exactly
// (integer tw*kl/k for uniform, float64 rounding for weighted) so that
// fixed-seed partitions are bit-identical to the pre-engine drivers.
type splitSpec interface {
	// parts is the number of leaf parts this subproblem produces.
	parts() int
	// target0 is the desired weight of the left half-range given the
	// subgraph's total vertex weight.
	target0(totalVwgt int) int
	// halves splits the spec for the two recursive subproblems.
	halves() (left, right splitSpec)
}

// uniformSplit is k equal parts.
type uniformSplit int

func (s uniformSplit) parts() int { return int(s) }

func (s uniformSplit) target0(tw int) int {
	k := int(s)
	return tw * (k / 2) / k
}

func (s uniformSplit) halves() (splitSpec, splitSpec) {
	kl := int(s) / 2
	return uniformSplit(kl), uniformSplit(int(s) - kl)
}

// weightedSplit holds normalized per-part weight fractions.
type weightedSplit []float64

func (s weightedSplit) parts() int { return len(s) }

func (s weightedSplit) target0(tw int) int {
	kl := len(s) / 2
	fracL := 0.0
	for _, f := range s[:kl] {
		fracL += f
	}
	fracTot := fracL
	for _, f := range s[kl:] {
		fracTot += f
	}
	return int(float64(tw) * fracL / fracTot)
}

func (s weightedSplit) halves() (splitSpec, splitSpec) {
	kl := len(s) / 2
	return s[:kl], s[kl:]
}

// engine is the single V-cycle driver behind Bisect, Partition,
// PartitionKWay and PartitionWeighted. It owns the recursion, the NCuts
// trial selection, derived seeds, the call's workspace arena, trace
// emission and context cancellation, so every entry point behaves
// identically. Its Recursion holds the context, the fan-out rule and the
// first failure of any branch.
type engine struct {
	*Recursion
	opts   Options // defaults already applied
	tracer trace.Tracer
	inj    *faults.Injector // never consulted when nil beyond a nil check

	mu sync.Mutex // guards Result fields during parallel recursion
}

func newEngine(opts Options) *engine {
	opts = opts.withDefaults()
	return &engine{
		Recursion: NewRecursion(opts, faults.SiteEngineBisect),
		opts:      opts,
		tracer:    opts.Tracer,
		inj:       opts.Injector,
	}
}

// run builds a k-way partition of g by recursive bisection according to
// sp, optionally finishing with a direct k-way refinement pass (uniform
// targets only; weighted targets would violate refine.RefineKWay's
// equal-target balance model).
func (e *engine) run(g *graph.Graph, sp splitSpec, kwayRefine bool) (res *Result, err error) {
	// A panic escaping the sequential recursion (the parallel branches
	// recover on their own goroutines) surfaces as an error, never as a
	// crashed caller: the engine is the outermost in-process boundary.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("multilevel: %w", faults.AsPanic("engine/run", r))
		}
	}()
	k := sp.parts()
	res = &Result{
		Where:       make([]int, g.NumVertices()),
		PartWeights: make([]int, k),
	}
	// The call's arena: every bisection, the k-way pass and the extra
	// cycles draw from it, and it is dropped when run returns.
	ws := new(workspace.Workspace)
	ids := ws.Int(g.NumVertices())
	for i := range ids {
		ids[i] = i
	}
	e.recurse(g, ids, sp, 0, e.opts.Seed, 0, res, ws)
	if err := e.Err(); err != nil {
		return nil, fmt.Errorf("multilevel: %w", err)
	}
	cut := -1 // res.Where's edge-cut, once a k-way refinement keeps it
	if kwayRefine && k >= 2 {
		t0 := time.Now()
		p := kway.NewPartition(g, k, res.Where)
		tr := trace.WithSeed(e.tracer, e.opts.Seed)
		e.guardedKWayRefine(p, refine.KWayOptions{
			Ubfactor:  e.opts.Ubfactor,
			Seed:      e.opts.Seed,
			Workspace: ws,
			Tracer:    tr,
			Counters:  &res.Stats.Counters,
		}, &res.Stats, tr)
		res.Stats.RefineTime += time.Since(t0)
		cut = p.Cut
	}
	if _, uniform := sp.(uniformSplit); uniform {
		// Extra cycles of the eco/strong presets. Weighted targets are
		// excluded: the k-way refinement kernels assume equal part targets.
		e.iterate(g, k, res, cut, ws)
	} else {
		res.Stats.Cycles = 1
	}
	for v, p := range res.Where {
		res.PartWeights[p] += g.Vwgt[v]
	}
	res.EdgeCut = refine.ComputeCut(g, res.Where)
	return res, nil
}

// recurse bisects g into sp.parts() leaf parts. ids maps local vertices to
// original ids; depth tracks the recursion level for parallel fan-out. ids,
// and below the root (depth > 0) g itself, were drawn from ws: recurse
// returns them to ws as soon as g is split, before it recurses, so the
// halves' hierarchies reuse their memory.
func (e *engine) recurse(g *graph.Graph, ids []int, sp splitSpec, base int, seed int64, depth int, res *Result, ws *workspace.Workspace) {
	release := func() {
		if depth > 0 {
			g.Release(ws)
		}
		ws.PutInt(ids)
	}
	if e.Stop() {
		return
	}
	n := g.NumVertices()
	if sp.parts() <= 1 || n == 0 {
		e.mu.Lock()
		for _, id := range ids {
			res.Where[id] = base
		}
		e.mu.Unlock()
		release()
		return
	}
	target0 := sp.target0(g.TotalVertexWeight())
	if target0 < 1 {
		// Degenerate weights (e.g. all-zero subgraph) must still seed part 0,
		// or the left recursion receives an empty graph forever.
		target0 = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b, stats := e.bisect(g, target0, rng, seed, ws)
	e.mu.Lock()
	res.Stats.add(stats)
	e.mu.Unlock()
	if b == nil {
		// Cancelled or failed mid-bisection; the failure is recorded.
		return
	}

	left, idsL := splitHalf(g, b.Where, 0, ids, ws)
	right, idsR := splitHalf(g, b.Where, 1, ids, ws)
	b.Release(ws)
	release()
	kl := sp.parts() / 2
	spL, spR := sp.halves()
	seedL, seedR := DeriveSeed(seed, 2), DeriveSeed(seed, 3)
	// A spawned left half gets its own arena; its arrays move into it with
	// the goroutine start.
	e.Fork(depth, n, ws, func(ws *workspace.Workspace) {
		e.recurse(left, idsL, spL, base, seedL, depth+1, res, ws)
	}, func(ws *workspace.Workspace) {
		e.recurse(right, idsR, spR, base+kl, seedR, depth+1, res, ws)
	})
}

// splitHalf extracts the subgraph of g induced by where == part, drawing
// its arrays from ws, and maps its vertices to original ids in place of the
// local-to-parent map.
func splitHalf(g *graph.Graph, where []int, part int, ids []int, ws *workspace.Workspace) (*graph.Graph, []int) {
	sub, childIDs := g.PartSubgraphWS(where, part, ws)
	for i, v := range childIDs {
		childIDs[i] = ids[v]
	}
	return sub, childIDs
}

// bisect dispatches between the single V-cycle and the NCuts best-of-N
// selection. seed identifies this bisection in trace events. The returned
// bisection's arrays belong to ws: the caller releases it there, or
// detaches it if it outlives the call.
func (e *engine) bisect(g *graph.Graph, target0 int, rng *rand.Rand, seed int64, ws *workspace.Workspace) (*refine.Bisection, *Stats) {
	if e.opts.NCuts > 1 {
		return e.bisectNCuts(g, target0, rng, ws)
	}
	return e.bisectOnce(g, target0, rng, seed, ws)
}

// bisectNCuts repeats the full bisection opts.NCuts times with seeds derived
// from a single draw on rng and keeps the smallest cut (ties to the earliest
// trial). Because each trial owns a derived-seed RNG rather than sharing
// rng's stream, the trials are order-independent: with opts.Parallel they run
// concurrently and still pick the exact bisection the sequential loop picks.
// Sequential trials share ws, and each losing bisection is released there
// before the next trial starts; parallel trials each get their own arena,
// and the losers are released into ws once all have finished.
func (e *engine) bisectNCuts(g *graph.Graph, target0 int, rng *rand.Rand, ws *workspace.Workspace) (*refine.Bisection, *Stats) {
	n := e.opts.NCuts
	base := rng.Int63()
	bs := make([]*refine.Bisection, n)
	ss := make([]*Stats, n)
	trial := func(i int, tws *workspace.Workspace) {
		seed := DeriveSeed(base, int64(i))
		trng := rand.New(rand.NewSource(seed))
		bs[i], ss[i] = e.bisectOnce(g, target0, trng, seed, tws)
	}
	best := -1
	total := &Stats{}
	// pick folds trial i into the selection in index order, so ties go to
	// the earliest trial whichever way the trials ran.
	pick := func(i int) {
		if ss[i] != nil {
			total.add(ss[i])
		}
		switch b := bs[i]; {
		case b == nil:
		case best < 0 || b.Cut < bs[best].Cut:
			if best >= 0 {
				bs[best].Release(ws)
			}
			best = i
		default:
			b.Release(ws)
		}
	}
	if e.opts.Parallel {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// A trial panic must fail this bisection, not the process.
				e.Guard(func() { trial(i, new(workspace.Workspace)) })
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			pick(i)
		}
	} else {
		for i := 0; i < n; i++ {
			trial(i, ws)
			pick(i)
		}
	}
	total.Bisections = 1
	if e.Err() != nil || best < 0 {
		// A trial panicked (or hit an injected fault), or every trial was
		// cancelled. Sibling trials may have finished, but a poisoned
		// bisection must fail as a whole: the panic marks an invariant
		// violation, not a quality trade.
		return nil, total
	}
	return bs[best], total
}

// bisectOnce is the multilevel V-cycle: coarsen, partition the coarsest
// graph, then project and refine level by level. It returns a nil bisection
// (with the stats gathered so far) when the engine's context is cancelled.
func (e *engine) bisectOnce(g *graph.Graph, target0 int, rng *rand.Rand, seed int64, ws *workspace.Workspace) (*refine.Bisection, *Stats) {
	opts := e.opts
	if target0 <= 0 {
		target0 = g.TotalVertexWeight() / 2
	}
	stats := &Stats{Bisections: 1}
	tr := trace.WithSeed(e.tracer, seed)
	if e.Stop() {
		return nil, stats
	}
	// All scratch for this bisection — hierarchy arrays, trial bisections,
	// gain buckets — comes from the caller's ws, and so does the returned
	// Bisection. On a panic anywhere below, buffers still checked out of ws
	// are simply never returned, which is safe (ws allocates on demand).
	if ierr := e.inj.Fire(faults.SiteEngineBisect); ierr != nil {
		e.Fail(ierr)
		return nil, stats
	}
	ropts := refine.Options{
		StopWindow: opts.StopWindow,
		Ubfactor:   opts.Ubfactor,
		TargetPwgt: [2]int{target0, g.TotalVertexWeight() - target0},
		OrigNvtxs:  g.NumVertices(),
		Workspace:  ws,
		Tracer:     tr,
		Counters:   &stats.Counters,
	}

	h := e.phaseCoarsen(g, opts.CoarsenTo, nil, rng, ws, tr, stats)
	emitDegraded(tr, stats.Degradations, 0)
	if e.Stop() {
		h.Release(ws)
		return nil, stats
	}

	if ierr := e.inj.Fire(faults.SiteInitPart); ierr != nil {
		h.Release(ws)
		e.Fail(ierr)
		return nil, stats
	}
	degBase := len(stats.Degradations)
	t0 := time.Now()
	b := initpart.Partition(h.Coarsest(), initpart.Options{
		Method:       opts.InitMethod,
		Trials:       opts.InitTrials,
		TargetPwgt0:  target0,
		Workspace:    ws,
		Level:        len(h.Levels) - 1,
		Tracer:       tr,
		Injector:     e.inj,
		Degradations: &stats.Degradations,
	}, rng)
	stats.InitTime = time.Since(t0)
	stats.InitialCut = b.Cut
	emitDegraded(tr, stats.Degradations, degBase)

	// Refine the coarsest partition, then project and refine level by level.
	t0 = time.Now()
	ropts.Level = len(h.Levels) - 1
	refine.ForceBalance(b, ropts)
	e.guardedRefine(b, opts.Refinement, ropts, stats, tr)
	stats.RefineTime += time.Since(t0)
	ok := e.uncoarsen(h, ws, stats, tr, func(li int) int {
		nb := refine.ProjectWS(h.Levels[li].Graph, h.Levels[li].Cmap, b, ws)
		b.Release(ws)
		b = nb
		return b.Cut
	}, func(li int) {
		ropts.Level = li
		e.guardedRefine(b, opts.Refinement, ropts, stats, tr)
	})
	if !ok {
		b.Release(ws)
		h.Release(ws)
		return nil, stats
	}
	h.Release(ws)
	emitPhases(tr, stats)
	return b, stats
}

// uncoarsen walks the hierarchy from the second-coarsest level to the
// finest, projecting then refining at each level. It is shared by the
// bisection V-cycle and the direct k-way V-cycle, which supply the
// projection (returning the projected cut) and the per-level refinement.
// Each coarse level is popped, its buffers back in ws, as soon as the
// projection has left it, so the refinement of the finer levels can reuse
// them. It returns false as soon as the engine's context is cancelled.
func (e *engine) uncoarsen(h *coarsen.Hierarchy, ws *workspace.Workspace, stats *Stats, tr trace.Tracer, project func(li int) int, refineLevel func(li int)) bool {
	for li := len(h.Levels) - 2; li >= 0; li-- {
		if e.Stop() {
			return false
		}
		t0 := time.Now()
		cut := project(li)
		h.Pop(ws)
		stats.ProjectTime += time.Since(t0)
		stats.Projections++
		if tr != nil {
			tr.Event(trace.Event{
				Kind:      trace.KindProject,
				Level:     li,
				Cut:       cut,
				ElapsedNS: time.Since(t0).Nanoseconds(),
			})
		}
		t0 = time.Now()
		refineLevel(li)
		stats.RefineTime += time.Since(t0)
	}
	return true
}

// emitPhases reports the per-phase wall time of one completed V-cycle.
func emitPhases(tr trace.Tracer, stats *Stats) {
	if tr == nil {
		return
	}
	for _, p := range [...]struct {
		name string
		d    time.Duration
	}{
		{"coarsen", stats.CoarsenTime},
		{"initial", stats.InitTime},
		{"refine", stats.RefineTime},
		{"project", stats.ProjectTime},
	} {
		tr.Event(trace.Event{Kind: trace.KindPhase, Phase: p.name, ElapsedNS: p.d.Nanoseconds()})
	}
}

// noteDegradation records a fallback in the run's stats and, when tracing,
// emits the matching KindDegraded event.
func noteDegradation(stats *Stats, tr trace.Tracer, d trace.Degradation) {
	stats.Degradations = append(stats.Degradations, d)
	emitDegraded(tr, stats.Degradations, len(stats.Degradations)-1)
}

// emitDegraded emits KindDegraded events for ds[from:] — degradations the
// coarsening and initial-partitioning phases recorded without a tracer in
// scope.
func emitDegraded(tr trace.Tracer, ds []trace.Degradation, from int) {
	if tr == nil {
		return
	}
	for _, d := range ds[from:] {
		tr.Event(trace.Event{
			Kind:       trace.KindDegraded,
			Level:      d.Level,
			Phase:      d.Phase,
			Algorithm:  d.From,
			FallbackTo: d.To,
			Reason:     d.Reason,
		})
	}
}

// guardLevel runs one level's refinement behind the fault boundary at
// site: an injected error skips the pass, and a panic (injected or
// organic) abandons it, after which restore rebuilds the state a half
// applied move may have left inconsistent, since the next projection
// carries it upward. Either way the level keeps its projected partition —
// refinement is an improvement step, never a correctness requirement —
// and the fallback from algorithm from is recorded as a degradation of
// phase. The recover is installed before the site fires, so an injected
// panic is caught here too.
func (e *engine) guardLevel(site, phase, from string, level int, stats *Stats, tr trace.Tracer, run, restore func()) {
	degrade := func(reason string) {
		noteDegradation(stats, tr, trace.Degradation{
			Phase: phase, From: from, To: "projected", Level: level, Reason: reason,
		})
	}
	defer func() {
		if r := recover(); r != nil {
			degrade(faults.AsPanic(site, r).Error())
			restore()
		}
	}()
	if ierr := e.inj.Fire(site); ierr != nil {
		degrade(ierr.Error())
		return
	}
	run()
}

// guardedRefine runs one level's 2-way refinement behind guardLevel.
// After a panic the bisection's state is recounted from Where and the
// balance tolerance is restored.
func (e *engine) guardedRefine(b *refine.Bisection, policy refine.Policy, ropts refine.Options, stats *Stats, tr trace.Tracer) {
	e.guardLevel(faults.SiteRefineLevel, "refine", policy.String(), ropts.Level, stats, tr,
		func() { refine.Refine(b, policy, ropts) },
		func() {
			b.Recount()
			rebalance(b, ropts)
		})
}

// rebalance restores the part-weight tolerance after an abandoned
// refinement pass. It runs behind its own recover so a bisection corrupted
// badly enough to break ForceBalance degrades to "imbalanced but
// structurally valid" instead of cascading the panic.
func rebalance(b *refine.Bisection, ropts refine.Options) {
	defer func() { _ = recover() }()
	refine.ForceBalance(b, ropts)
}

// guardedKWayRefine is guardedRefine's direct k-way counterpart: it runs
// the boundary k-way kernel, refine.RefineKWay, with the engine's
// RefineWorkers propose fan-out and fault injector behind guardLevel, and
// after a panic recounts the part weights and cut from Where.
func (e *engine) guardedKWayRefine(p *kway.Partition, kopts refine.KWayOptions, stats *Stats, tr trace.Tracer) {
	e.guardLevel(faults.SiteKWayLevel, "kway", "BKWAY", kopts.Level, stats, tr,
		func() {
			kopts.Workers = e.opts.RefineWorkers
			kopts.Injector = e.inj
			refine.RefineKWay(p, kopts)
		},
		func() { *p = *kway.NewPartition(p.G, p.K, p.Where) })
}
