package multilevel

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/faults"
	"mlpart/internal/initpart"
	"mlpart/internal/kway"
	"mlpart/internal/matgen"
	"mlpart/internal/metrics"
	"mlpart/internal/refine"
	"mlpart/internal/trace"
)

// collectTracer records events for assertions; it must be goroutine-safe
// because parallel branches emit concurrently.
type collectTracer struct {
	mu     sync.Mutex
	events []trace.Event
}

func (c *collectTracer) Event(e trace.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectTracer) degraded() []trace.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []trace.Event
	for _, e := range c.events {
		if e.Kind == trace.KindDegraded {
			out = append(out, e)
		}
	}
	return out
}

// findDegradation returns the first recorded degradation matching phase
// and fallback target, or nil.
func findDegradation(ds []trace.Degradation, phase, to string) *trace.Degradation {
	for i := range ds {
		if ds[i].Phase == phase && ds[i].To == to {
			return &ds[i]
		}
	}
	return nil
}

// verifyResult asserts res is a complete, valid, reasonably balanced
// k-way partition — the contract every degraded run must still honor.
func verifyResult(t *testing.T, res *Result, n, k int) {
	t.Helper()
	if len(res.Where) != n {
		t.Fatalf("len(Where) = %d, want %d", len(res.Where), n)
	}
	for v, p := range res.Where {
		if p < 0 || p >= k {
			t.Fatalf("vertex %d in part %d (k=%d)", v, p, k)
		}
	}
	if bal := res.Balance(); bal > 1.5 {
		t.Errorf("balance = %v after degradation, want <= 1.5", bal)
	}
}

func TestChaosDegradeSBPToGGGP(t *testing.T) {
	g := matgen.Grid2D(24, 24)
	tr := &collectTracer{}
	res, err := Partition(g, 2, Options{
		Seed:       5,
		InitMethod: initpart.SBP,
		Injector:   faults.MustParse("initpart/sbp=error@1"),
		Tracer:     tr,
	})
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	verifyResult(t, res, 24*24, 2)
	d := findDegradation(res.Stats.Degradations, "initpart", "GGGP")
	if d == nil {
		t.Fatalf("no initpart->GGGP degradation recorded: %+v", res.Stats.Degradations)
	}
	if d.From != "SBP" || d.Reason == "" {
		t.Errorf("degradation = %+v, want From=SBP with a reason", d)
	}
	evs := tr.degraded()
	if len(evs) == 0 {
		t.Fatal("no degraded trace event emitted")
	}
	if evs[0].Phase != "initpart" || evs[0].FallbackTo != "GGGP" {
		t.Errorf("trace event = %+v, want initpart fallback to GGGP", evs[0])
	}
}

func TestChaosDegradeHCMToHEM(t *testing.T) {
	g := matgen.Mesh2DTri(24, 24, 0.02, 2)
	tr := &collectTracer{}
	res, err := Partition(g, 2, Options{
		Seed:     3,
		Injector: faults.MustParse("coarsen/match=error@1"),
		Tracer:   tr,
	}.WithMatching(coarsen.HCM))
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	verifyResult(t, res, g.NumVertices(), 2)
	d := findDegradation(res.Stats.Degradations, "coarsen", "HEM")
	if d == nil {
		t.Fatalf("no coarsen->HEM degradation recorded: %+v", res.Stats.Degradations)
	}
	if d.From != "HCM" {
		t.Errorf("degradation From = %q, want HCM", d.From)
	}
	if len(tr.degraded()) == 0 {
		t.Error("no degraded trace event emitted")
	}
}

// TestChaosDegradeGCLPToHEM forces the cluster coarsener off its happy
// path with the same coarsen/match fault the HCM test uses: the whole run
// must complete on HEM with the GCLP->HEM degradation recorded.
func TestChaosDegradeGCLPToHEM(t *testing.T) {
	g := matgen.Mesh2DTri(24, 24, 0.02, 2)
	tr := &collectTracer{}
	res, err := Partition(g, 2, Options{
		Seed:     3,
		Injector: faults.MustParse("coarsen/match=error@1"),
		Tracer:   tr,
	}.WithMatching(coarsen.GCLP))
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	verifyResult(t, res, g.NumVertices(), 2)
	d := findDegradation(res.Stats.Degradations, "coarsen", "HEM")
	if d == nil {
		t.Fatalf("no coarsen->HEM degradation recorded: %+v", res.Stats.Degradations)
	}
	if d.From != "GCLP" {
		t.Errorf("degradation From = %q, want GCLP", d.From)
	}
	if len(tr.degraded()) == 0 {
		t.Error("no degraded trace event emitted")
	}
}

func TestChaosDegradeRefineToProjected(t *testing.T) {
	g := matgen.Grid2D(24, 24)
	tr := &collectTracer{}
	res, err := Partition(g, 2, Options{
		Seed:     7,
		Injector: faults.MustParse("refine/level=error@1"),
		Tracer:   tr,
	})
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	verifyResult(t, res, 24*24, 2)
	d := findDegradation(res.Stats.Degradations, "refine", "projected")
	if d == nil {
		t.Fatalf("no refine->projected degradation recorded: %+v", res.Stats.Degradations)
	}
	if len(tr.degraded()) == 0 {
		t.Error("no degraded trace event emitted")
	}
}

func TestChaosDegradeKWayToProjected(t *testing.T) {
	g := matgen.Mesh2DTri(30, 30, 0, 6)
	tr := &collectTracer{}
	res, err := PartitionKWay(g, 8, Options{
		Seed:     9,
		Injector: faults.MustParse("kway/level=error@1"),
		Tracer:   tr,
	})
	if err != nil {
		t.Fatalf("PartitionKWay: %v", err)
	}
	verifyResult(t, res, g.NumVertices(), 8)
	d := findDegradation(res.Stats.Degradations, "kway", "projected")
	if d == nil {
		t.Fatalf("no kway->projected degradation recorded: %+v", res.Stats.Degradations)
	}
	if len(tr.degraded()) == 0 {
		t.Error("no degraded trace event emitted")
	}
}

func TestChaosCoarsenLevelShallowHierarchy(t *testing.T) {
	// Failing a coarsening level truncates the hierarchy; initial
	// partitioning then runs on a bigger coarsest graph, but the result
	// must still be complete and balanced.
	g := matgen.Grid2D(32, 32)
	res, err := Partition(g, 4, Options{
		Seed:     11,
		Injector: faults.MustParse("coarsen/level=error@2"),
	})
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	verifyResult(t, res, 32*32, 4)
}

// TestChaosNCutsTrialPanicFailsCleanly: a panic inside one parallel
// best-of-NCuts trial goroutine must surface as an error from Partition —
// never a process crash, never a silently partial result.
func TestChaosNCutsTrialPanic(t *testing.T) {
	g := matgen.Grid2D(48, 48)
	_, err := Partition(g, 2, Options{
		Seed:                1,
		Parallel:            true,
		NCuts:               4,
		ParallelMinVertices: 1,
		Injector:            faults.MustParse("engine/bisect=panic@1"),
	})
	if err == nil {
		t.Fatal("Partition succeeded despite an injected panic")
	}
	var pe *faults.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not unwrap to *faults.PanicError", err)
	}
	if pe.Site == "" {
		t.Errorf("recovered panic has no site: %+v", pe)
	}
}

// TestChaosInjectorParity: a plan that only delays (never panics or
// errors) must not change a single bit of the result, and neither must an
// explicitly nil injector — fault handling is free when dormant.
func TestChaosInjectorParity(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 8)
	clean, err := Partition(g, 8, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := Partition(g, 8, Options{
		Seed:     42,
		Injector: faults.MustParse("refine/level=delay:100us@1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if clean.EdgeCut != delayed.EdgeCut || !reflect.DeepEqual(clean.Where, delayed.Where) {
		t.Errorf("delay-only plan changed the partition: cut %d vs %d", clean.EdgeCut, delayed.EdgeCut)
	}
	if len(delayed.Stats.Degradations) != 0 {
		t.Errorf("delay-only plan recorded degradations: %+v", delayed.Stats.Degradations)
	}
}

func TestValidateRejectsBadEnums(t *testing.T) {
	g := matgen.Grid2D(8, 8)
	if _, err := Partition(g, 2, Options{}.WithMatching(coarsen.Scheme(99))); err == nil {
		t.Error("matching scheme 99 accepted")
	}
	if _, err := Partition(g, 2, Options{InitMethod: initpart.Method(99)}); err == nil {
		t.Error("init method 99 accepted")
	}
	if _, err := Partition(g, 2, Options{}.WithRefinement(refine.Policy(99))); err == nil {
		t.Error("refinement policy 99 accepted")
	}
}

// TestChaosLevelPanicKeepsProjected injects a panic at the second hit of
// each level refinement site, on the recursive and the direct path: the
// level must keep its projected partition, the run must succeed with
// exactly that one degradation, and the reported cut and part weights
// must be those of the returned partition.
func TestChaosLevelPanicKeepsProjected(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 3)
	const k = 8
	for _, plan := range []struct{ spec, phase string }{
		{"refine/level=panic@2", "refine"},
		{"kway/level=panic@2", "kway"},
	} {
		for _, direct := range []bool{false, true} {
			name := plan.spec + "/recursive"
			run := Partition
			if direct {
				name = plan.spec + "/direct"
				run = PartitionKWay
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(g, k, Options{
					Seed:       4,
					KWayRefine: true,
					Preset:     PresetEco,
					Injector:   faults.MustParse(plan.spec),
				})
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				verifyResult(t, res, g.NumVertices(), k)
				if len(res.Stats.Degradations) != 1 {
					t.Fatalf("degradations = %+v, want exactly one", res.Stats.Degradations)
				}
				if d := res.Stats.Degradations[0]; d.Phase != plan.phase || d.To != "projected" {
					t.Fatalf("degradation = %+v, want %s -> projected", d, plan.phase)
				}
				rep, err := metrics.Evaluate(g, res.Where, k)
				if err != nil {
					t.Fatal(err)
				}
				if rep.EdgeCut != res.EdgeCut || !reflect.DeepEqual(rep.PartWeights, res.PartWeights) {
					t.Fatalf("reported cut %d, weights %v; evaluated %d, %v",
						res.EdgeCut, res.PartWeights, rep.EdgeCut, rep.PartWeights)
				}
			})
		}
	}
}

// TestGuardedRefineRecountsAfterPanic: a panic behind the level fault
// boundaries may leave a move half applied, so the boundaries rebuild the
// state from Where before anything reads it again. A corrupted state
// stands in for the half-applied move.
func TestGuardedRefineRecountsAfterPanic(t *testing.T) {
	g := matgen.Grid2D(16, 16)
	e := newEngine(Options{Injector: faults.MustParse("refine/level=panic@1;kway/level=panic@1")})
	stats := &Stats{}

	where := make([]int, g.NumVertices())
	for v := range where {
		where[v] = v % 16 / 8
	}
	b := refine.NewBisection(g, where)
	b.Cut += 7
	b.Pwgt[0]++
	b.ED[3] += 2
	e.guardedRefine(b, refine.BKLGR, refine.Options{}, stats, nil)
	if err := b.Verify(); err != nil {
		t.Fatalf("bisection after a recovered panic: %v", err)
	}

	kwhere := make([]int, g.NumVertices())
	for v := range kwhere {
		kwhere[v] = v % 4
	}
	p := kway.NewPartition(g, 4, kwhere)
	want := *p
	want.Pwgt = slices.Clone(p.Pwgt)
	p.Cut += 7
	p.Pwgt[1]--
	e.guardedKWayRefine(p, refine.KWayOptions{}, stats, nil)
	if p.Cut != want.Cut || !slices.Equal(p.Pwgt, want.Pwgt) || !slices.Equal(p.Where, want.Where) {
		t.Fatalf("partition after a recovered panic: cut %d, weights %v; want %d, %v", p.Cut, p.Pwgt, want.Cut, want.Pwgt)
	}
	if len(stats.Degradations) != 2 {
		t.Fatalf("degradations = %+v, want one per boundary", stats.Degradations)
	}
}
