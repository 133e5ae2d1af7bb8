package ordering

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/matgen"
	"mlpart/internal/multilevel"
	"mlpart/internal/workspace"
)

// chaosSchedules are the recursion schedules every fault must fail
// identically under: sequential, and fanned out at every split.
var chaosSchedules = []struct {
	name string
	ml   multilevel.Options
}{
	{"sequential", multilevel.Options{}},
	{"parallel", multilevel.Options{Parallel: true, ParallelMinVertices: 1}},
}

// noLeak fails t if goroutines started after before are still running
// once the branches have had a moment to exit.
func noLeak(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the run", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosNestedDissectionFaults injects a fault into the first
// multilevel bisection of nested dissection: an injected error must come
// back as an error that unwraps to *faults.InjectedError and a panic as
// one that unwraps to *faults.PanicError, with no perm and no goroutine
// left behind, whichever way the recursion is scheduled.
func TestChaosNestedDissectionFaults(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 5)
	for _, plan := range []struct {
		spec string
		want func(error) bool
	}{
		{"engine/bisect=error@1", func(err error) bool { var ie *faults.InjectedError; return errors.As(err, &ie) }},
		{"engine/bisect=panic@1", func(err error) bool { var pe *faults.PanicError; return errors.As(err, &pe) }},
		{"engine/bisect=panic@3", func(err error) bool { var pe *faults.PanicError; return errors.As(err, &pe) }},
	} {
		for _, sc := range chaosSchedules {
			t.Run(plan.spec+"/"+sc.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				opts := Options{ML: sc.ml}
				opts.ML.Seed = 3
				opts.ML.Injector = faults.MustParse(plan.spec)
				perm, err := MLND(g, opts)
				if err == nil || !plan.want(err) {
					t.Fatalf("err = %v, want the injected fault", err)
				}
				if perm != nil {
					t.Errorf("a failed dissection returned a %d-entry perm", len(perm))
				}
				noLeak(t, before)
			})
		}
	}
}

// TestChaosDissectionBranchPanic panics outside the multilevel engine, in
// the bisector of a deeper split, so that with fan-out forced on the panic
// unwinds a spawned branch: the dissection's own guard must turn it into
// a *faults.PanicError attributed to the dissection.
func TestChaosDissectionBranchPanic(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 5)
	for _, sc := range chaosSchedules {
		t.Run(sc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			opts := Options{ML: sc.ml}
			opts.ML.Seed = 3
			var calls atomic.Int32
			perm, err := dissect(g, opts, func(sub *graph.Graph, _ int64, _ *workspace.Workspace) ([]int, error) {
				if calls.Add(1) == 2 {
					panic("bisector fault")
				}
				// Split by vertex number: a valid, if poor, bisection.
				where := make([]int, sub.NumVertices())
				for v := range where {
					where[v] = 2 * v / len(where)
				}
				return where, nil
			})
			var pe *faults.PanicError
			if !errors.As(err, &pe) || pe.Site != "ordering/dissect" {
				t.Fatalf("err = %v, want a *faults.PanicError at ordering/dissect", err)
			}
			if perm != nil {
				t.Errorf("a failed dissection returned a %d-entry perm", len(perm))
			}
			noLeak(t, before)
		})
	}
}
