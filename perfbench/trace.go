package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mlpart"
	"mlpart/internal/sessions"
	"mlpart/internal/trace"
)

// stamped is an engine trace event with its arrival time. The event's span
// is reconstructed as end = arrival, start = end - ElapsedNS.
type stamped struct {
	at time.Time
	ev mlpart.TraceEvent
}

func (s stamped) start() time.Time { return s.at.Add(-time.Duration(s.ev.ElapsedNS)) }

// eventLog is the tracer the traced run installs in mlpart.Options and
// sessions.Options. It keeps events in memory until the op takes them.
type eventLog struct {
	mu  sync.Mutex
	evs []stamped
}

func (l *eventLog) Event(e mlpart.TraceEvent) {
	at := time.Now()
	l.mu.Lock()
	l.evs = append(l.evs, stamped{at: at, ev: e})
	l.mu.Unlock()
}

func (l *eventLog) take() []stamped {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.evs
	l.evs = nil
	return evs
}

// stageSpan is one timed call into a layer.
type stageSpan struct {
	name       string
	start, end time.Time
	alloc      uint64 // bytes allocated during the call; traced runs only
}

// tracedOp is one op run through direct layer calls: its op span, the
// top-level stage spans inside it, and the engine events it produced.
type tracedOp struct {
	rec         *record
	log         *eventLog
	start       time.Time
	span        time.Duration
	stages      []stageSpan
	events      []stamped
	encode      time.Duration // json.Marshal time, possibly nested in a stage
	fingerprint uint64        // kept so the timed call's result is used
	alloc0      uint64
	sampling    time.Duration // spent reading allocation counters
}

func newTracedOp(i int, log *eventLog) *tracedOp {
	return &tracedOp{rec: &record{op: i}, log: log, start: time.Now()}
}

// totalAlloc reads the allocation counter when tracing; its own time is
// kept out of the op span.
func (t *tracedOp) totalAlloc() uint64 {
	if t.log == nil {
		return 0
	}
	t0 := time.Now()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.sampling += time.Since(t0)
	return m.TotalAlloc
}

// begin opens a stage span; allocation is sampled outside the span.
func (t *tracedOp) begin(name string) {
	t.alloc0 = t.totalAlloc()
	t.stages = append(t.stages, stageSpan{name: name, start: time.Now()})
}

func (t *tracedOp) end() {
	s := &t.stages[len(t.stages)-1]
	s.end = time.Now()
	s.alloc = t.totalAlloc() - t.alloc0
}

func (t *tracedOp) finish() {
	t.span = time.Since(t.start) - t.sampling
	if t.log != nil {
		t.events = t.log.take()
	}
}

// stage returns the total duration of the stages called name.
func (t *tracedOp) stage(name string) time.Duration {
	var d time.Duration
	for _, s := range t.stages {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

func (t *tracedOp) stageAlloc(name string) uint64 {
	var a uint64
	for _, s := range t.stages {
		if s.name == name {
			a += s.alloc
		}
	}
	return a
}

// digest is one op's engine events reduced to per-layer figures.
type digest struct {
	phase        map[string]time.Duration
	extraCycles  time.Duration
	cycle0Cut    int
	hasCycle0    bool
	hierarchies  int
	contractions int
	shrinkSum    float64
	matchSum     float64
	initials     int
	initialCut   int
	passes       int
	moves        int
	useful       int
	boundarySum  int
	boundaryN    int
	deltas       int
	boundaryTier int
	repair       time.Duration
	outside      int // event spans not inside their parent stage

	// The engine span minus its phase events, located by the V-cycle
	// spans the phase events reconstruct: before the first V-cycle,
	// between V-cycles (the recursive split), and after the last.
	prepare, split, assemble time.Duration
}

func digestOp(t *tracedOp) digest {
	d := digest{phase: map[string]time.Duration{}}
	prevN := 0
	var parent stageSpan
	for _, s := range t.stages {
		if s.name == "multilevel.compute" || s.name == "sessions.apply" {
			parent = s
		}
	}
	// Each V-cycle reports its four phase totals together when it ends,
	// "coarsen" first; the cycle's span ends at that event and lasts the
	// sum of the four.
	type vcycle struct {
		end time.Time
		dur time.Duration
	}
	var cycles []vcycle
	for _, s := range t.events {
		e := s.ev
		switch e.Kind {
		case trace.KindPhase:
			d.phase[e.Phase] += time.Duration(e.ElapsedNS)
			if e.Phase == "coarsen" {
				cycles = append(cycles, vcycle{end: s.at})
			}
			if len(cycles) > 0 {
				cycles[len(cycles)-1].dur += time.Duration(e.ElapsedNS)
			}
		case trace.KindCycle:
			if e.Cycle == 0 {
				d.cycle0Cut, d.hasCycle0 = e.Cut, true
			} else {
				d.extraCycles += time.Duration(e.ElapsedNS)
				if !within(s, parent) {
					d.outside++
				}
			}
		case trace.KindLevel:
			if e.Level == 0 {
				d.hierarchies++
			} else {
				d.contractions++
				d.matchSum += e.MatchRate
				if prevN > 0 {
					d.shrinkSum += float64(e.Vertices) / float64(prevN)
				}
			}
			prevN = e.Vertices
		case trace.KindInitial:
			d.initials++
			d.initialCut += e.Cut
		case trace.KindPass:
			d.passes++
			d.moves += e.Moves
			d.useful += e.PositiveGainMoves
			if e.Boundary > 0 {
				d.boundarySum += e.Boundary
				d.boundaryN++
			}
		case trace.KindSession:
			if e.Phase == "delta" {
				d.deltas++
				if e.Algorithm == sessions.TierBoundary.String() {
					d.boundaryTier++
				}
				d.repair += time.Duration(e.ElapsedNS)
				if !within(s, parent) {
					d.outside++
				}
			}
		}
	}
	cursor := parent.start
	for i, c := range cycles {
		cs := stamped{at: c.end, ev: mlpart.TraceEvent{ElapsedNS: c.dur.Nanoseconds()}}
		if !within(cs, stageSpan{start: cursor, end: parent.end}) {
			d.outside++
		}
		gap := max(cs.start().Sub(cursor), 0)
		if i == 0 {
			d.prepare = gap
		} else {
			d.split += gap
		}
		cursor = c.end
	}
	if len(cycles) > 0 {
		d.assemble = max(parent.end.Sub(cursor), 0)
	}
	return d
}

// within reports whether an event's reconstructed span lies inside the
// stage span that caused it, allowing for clock granularity.
func within(s stamped, parent stageSpan) bool {
	const slack = time.Millisecond
	return !s.start().Before(parent.start.Add(-slack)) && !s.at.After(parent.end.Add(slack))
}

// engineCovered is the engine time the events attribute to named
// sub-phases: the phase totals of the multilevel engine, or the session
// delta spans.
func (d digest) engineCovered() time.Duration {
	var c time.Duration
	for _, p := range d.phase {
		c += p
	}
	return c + d.repair
}

// runTraced is the traced run. Phase A sends ops 0..w.traced-1 over HTTP
// with one client and no tracing, for the service overhead and body
// sizes. Phase B runs the same ops through the direct calls untraced, the
// baseline of the tracing overhead. Phase C runs them through the direct
// calls with the engine tracer installed, until the window has passed and
// at least w.traced ops are done.
func runTraced(w workload, e *env, o options) (*result, error) {
	start := time.Now()
	var httpRecs []*record
	for i := 0; i < w.traced; i++ {
		httpRecs = append(httpRecs, e.fx.do(e.hc, e.base, i))
	}
	e.fx.check(httpRecs)

	runtime.GC()
	plainOp, err := e.fx.direct(nil)
	if err != nil {
		return nil, err
	}
	var plain []*tracedOp
	for i := 0; i < w.traced; i++ {
		t, err := plainOp(i)
		if err != nil {
			return nil, err
		}
		plain = append(plain, t)
	}
	e.fx.check(recordsOf(plain))

	runtime.GC() // drop phase B's session manager before phase C
	log := &eventLog{}
	op, err := e.fx.direct(log)
	if err != nil {
		return nil, err
	}
	log.take() // session creation events
	var traced []*tracedOp
	for i := 0; time.Since(start) < o.window || i < w.traced; i++ {
		t, err := op(i)
		if err != nil {
			return nil, err
		}
		traced = append(traced, t)
	}
	e.fx.check(recordsOf(traced))

	res := &result{}
	var all []*record
	all = append(all, httpRecs...)
	all = append(all, recordsOf(plain)...)
	all = append(all, recordsOf(traced)...)
	for i, t := range traced {
		// The tracer must not change results: op i's answer is the same
		// traced or not.
		if i < len(httpRecs) && t.rec.err == nil && httpRecs[i].err == nil && t.rec.cut != httpRecs[i].cut {
			t.rec.err = fmt.Errorf("traced cut %d differs from untraced cut %d", t.rec.cut, httpRecs[i].cut)
		}
	}
	for _, r := range all {
		res.Attempted++
		if r.err != nil {
			res.Failed++
			fmt.Fprintf(o.verbose, "# FAIL op %d: %v\n", r.op, r.err)
		}
	}

	rep := newReport()
	reconciled := perLayer(w, httpRecs, plain, traced, rep, o)
	rep.print(o.verbose)
	res.Correct = res.Failed == 0 && reconciled
	res.Metrics = rep.metrics
	return res, nil
}

func recordsOf(ts []*tracedOp) []*record {
	recs := make([]*record, len(ts))
	for i, t := range ts {
		recs[i] = t.rec
	}
	return recs
}

// minCoverage is the share of a parent span its named children must
// cover in the stage-reconciliation check.
const minCoverage = 0.90

// ubfactor is the balance tolerance every workload runs with: the
// engine's and the sessions' default.
const ubfactor = 1.05

// perLayer adds the per-layer metrics to rep and runs the
// stage-reconciliation check, printing any gap by name. Times are medians
// over all traced ops; counts and ratios are over the first w.traced ops,
// so they repeat exactly for one seed.
func perLayer(w workload, httpRecs []*record, plain, traced []*tracedOp, rep *report, o options) bool {
	counted := traced[:w.traced]
	digests := make([]digest, len(traced))
	for i, t := range traced {
		digests[i] = digestOp(t)
	}
	times := func(f func(t *tracedOp, d digest) time.Duration) float64 {
		xs := make([]float64, len(traced))
		for i, t := range traced {
			xs[i] = ms(f(t, digests[i]))
		}
		return median(xs)
	}
	allocs := func(name string) float64 {
		xs := make([]float64, len(traced))
		for i, t := range traced {
			xs[i] = mb(t.stageAlloc(name))
		}
		return median(xs)
	}
	var c digest
	overTol, gain := 0, 0
	for i := range counted {
		d := digests[i]
		if d.hasCycle0 {
			gain += d.cycle0Cut - traced[i].rec.cut
		}
		c.hierarchies += d.hierarchies
		c.contractions += d.contractions
		c.shrinkSum += d.shrinkSum
		c.matchSum += d.matchSum
		c.initials += d.initials
		c.initialCut += d.initialCut
		c.passes += d.passes
		c.moves += d.moves
		c.useful += d.useful
		c.boundarySum += d.boundarySum
		c.boundaryN += d.boundaryN
		c.deltas += d.deltas
		c.boundaryTier += d.boundaryTier
		if traced[i].rec.balance > ubfactor {
			overTol++
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nc := float64(len(counted))

	// Overheads are medians of per-op differences between two runs of the
	// same op, which cancels the op-to-op variation of the work itself.
	// The server-side time of an op is its X-Compute-Ns, or for replies
	// without one (sessions) the untraced direct calls.
	var svc, trc, sizesReq, sizesResp []float64
	for i, r := range httpRecs {
		server := ms(plain[i].span)
		if r.computeNS > 0 {
			server = float64(r.computeNS) / 1e6
		}
		svc = append(svc, ms(r.latency)-server)
		trc = append(trc, ms(traced[i].span-plain[i].span))
		sizesReq = append(sizesReq, float64(r.reqBytes)/1024)
		sizesResp = append(sizesResp, float64(r.respBytes)/1024)
	}
	serviceOverhead, traceOverhead := median(svc), median(trc)

	rep.add("graph.ingest_ms", times(func(t *tracedOp, _ digest) time.Duration { return t.stage("graph.ingest") }), "ms")
	rep.add("graph.ingest_alloc_mb", allocs("graph.ingest"), "MB")
	rep.add("graph.fingerprint_ms", times(func(t *tracedOp, _ digest) time.Duration { return t.stage("graph.fingerprint") }), "ms")
	rep.add("service.overhead_ms", serviceOverhead, "ms")
	rep.add("service.encode_ms", times(func(t *tracedOp, _ digest) time.Duration { return t.encode }), "ms")
	rep.add("service.request_kb", mean(sizesReq), "KB")
	rep.add("service.response_kb", mean(sizesResp), "KB")
	rep.add("multilevel.compute_ms", times(func(t *tracedOp, _ digest) time.Duration { return t.stage("multilevel.compute") }), "ms")
	rep.add("multilevel.alloc_mb", allocs("multilevel.compute"), "MB")
	rep.add("multilevel.project_ms", times(func(_ *tracedOp, d digest) time.Duration { return d.phase["project"] }), "ms")
	rep.add("multilevel.split_ms", times(func(_ *tracedOp, d digest) time.Duration { return d.split }), "ms")
	rep.note("multilevel.split_ms", "engine time between V-cycles, outside every phase event")
	rep.add("multilevel.extra_cycles_ms", times(func(_ *tracedOp, d digest) time.Duration { return d.extraCycles }), "ms")
	rep.add("multilevel.extra_cycle_cut_gain", float64(gain)/nc, "weight")
	rep.note("multilevel.extra_cycle_cut_gain", "cut after cycle 0 minus final cut, mean per op")
	rep.add("multilevel.over_tolerance_ops", float64(overTol), "count")
	rep.note("multilevel.over_tolerance_ops", fmt.Sprintf("of %d ops, balance > %g", len(counted), ubfactor))
	rep.add("coarsen.ms", times(func(_ *tracedOp, d digest) time.Duration { return d.phase["coarsen"] }), "ms")
	rep.add("coarsen.levels", ratio(float64(c.contractions), float64(c.hierarchies)), "count")
	rep.add("coarsen.shrink_per_level", ratio(c.shrinkSum, float64(c.contractions)), "ratio")
	rep.add("coarsen.match_rate", ratio(c.matchSum, float64(c.contractions)), "ratio")
	rep.add("initpart.ms", times(func(_ *tracedOp, d digest) time.Duration { return d.phase["initial"] }), "ms")
	rep.add("initpart.cut", ratio(float64(c.initialCut), float64(c.initials)), "weight")
	rep.add("refine.ms", times(func(_ *tracedOp, d digest) time.Duration { return d.phase["refine"] }), "ms")
	rep.add("refine.passes", float64(c.passes)/nc, "count")
	rep.add("refine.moves", float64(c.moves)/nc, "count")
	rep.add("refine.useful_move_ratio", ratio(float64(c.useful), float64(c.moves)), "ratio")
	rep.add("refine.boundary_mean", ratio(float64(c.boundarySum), float64(c.boundaryN)), "count")
	rep.add("sessions.apply_ms", times(func(t *tracedOp, _ digest) time.Duration { return t.stage("sessions.apply") }), "ms")
	rep.add("sessions.repair_ms", times(func(_ *tracedOp, d digest) time.Duration { return d.repair }), "ms")
	rep.add("sessions.read_ms", times(func(t *tracedOp, _ digest) time.Duration { return t.stage("sessions.read") }), "ms")
	rep.add("sessions.boundary_tier_ratio", ratio(float64(c.boundaryTier), float64(c.deltas)), "ratio")
	drift := 0.0
	if c.deltas > 0 {
		drift = sessionDrift(counted, w.inputs)
	}
	rep.add("sessions.cut_drift", drift, "ratio")

	// Stage reconciliation.
	ok := true
	minStage, minEngine := 1.0, 1.0
	for i, t := range traced {
		var covered time.Duration
		for _, s := range t.stages {
			covered += s.end.Sub(s.start)
		}
		cov := covered.Seconds() / t.span.Seconds()
		minStage = min(minStage, cov)
		if cov < minCoverage {
			ok = false
			fmt.Fprintf(o.verbose, "# GAP op %d: stages cover %.1f%% of the op span; unattributed %.3f ms\n",
				t.rec.op, 100*cov, ms(t.span-covered))
		}
		parent := t.stage("multilevel.compute") + t.stage("sessions.apply")
		if parent > 0 {
			d := digests[i]
			cov := d.engineCovered().Seconds() / parent.Seconds()
			minEngine = min(minEngine, cov)
			located := d.engineCovered() + d.prepare + d.split + d.assemble
			if cov < minCoverage && located.Seconds()/parent.Seconds() < minCoverage {
				ok = false
				fmt.Fprintf(o.verbose, "# GAP op %d: engine events cover %.1f%% of the engine span; unlocated %.3f ms\n",
					t.rec.op, 100*cov, ms(parent-located))
			}
		}
		if n := digests[i].outside; n > 0 {
			ok = false
			fmt.Fprintf(o.verbose, "# GAP op %d: %d event spans fall outside their parent stage\n", t.rec.op, n)
		}
	}
	rep.add("trace.stage_coverage", minStage, "ratio")
	rep.note("trace.stage_coverage", "min over ops of layer spans / op span")
	rep.add("trace.engine_coverage", minEngine, "ratio")
	rep.note("trace.engine_coverage", "min over ops of phase events / engine span")
	if minEngine < minCoverage {
		gap := func(f func(d digest) time.Duration) float64 {
			return times(func(_ *tracedOp, d digest) time.Duration { return f(d) })
		}
		fmt.Fprintf(o.verbose, "# GAP engine: phase events cover %.1f%% of the engine span; the rest lies between V-cycles "+
			"(multilevel.split %.3f ms), before the first (multilevel.prepare %.3f ms) and after the last "+
			"(multilevel.assemble %.3f ms), medians per op\n", 100*minEngine,
			gap(func(d digest) time.Duration { return d.split }),
			gap(func(d digest) time.Duration { return d.prepare }),
			gap(func(d digest) time.Duration { return d.assemble }))
	}
	rep.add("trace.overhead_ms", traceOverhead, "ms")
	rep.note("trace.overhead_ms", "traced minus untraced time of the same ops")
	fmt.Fprintf(o.verbose, "# traced ops: %d (counts over the first %d); http ops: %d; untraced direct ops: %d; reconciled: %t\n",
		len(traced), len(counted), len(httpRecs), len(plain), ok)
	return ok
}
