package multilevel

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"mlpart/internal/matgen"
	"mlpart/internal/trace"
)

// TestWeightedParallelParity pins the engine guarantee that the weighted
// recursion — which historically ran sequential-only — produces identical
// partitions with the parallel fan-out enabled, because every subproblem
// derives its own seed.
func TestWeightedParallelParity(t *testing.T) {
	g := matgen.Mesh2DTri(40, 40, 0.02, 4)
	fractions := []float64{5, 3, 2, 1, 1}
	for _, seed := range []int64{1, 42, 9999} {
		seq, err := PartitionWeighted(g, fractions, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		par, err := PartitionWeighted(g, fractions, Options{
			Seed:                seed,
			Parallel:            true,
			ParallelDepth:       8,
			ParallelMinVertices: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Where, par.Where) {
			t.Errorf("seed %d: parallel weighted partition differs from sequential", seed)
		}
		if seq.EdgeCut != par.EdgeCut {
			t.Errorf("seed %d: cut %d (sequential) != %d (parallel)", seed, seq.EdgeCut, par.EdgeCut)
		}
	}
}

// TestUniformParallelParity does the same for the uniform path, including
// NCuts trials running concurrently.
func TestUniformParallelParity(t *testing.T) {
	g := matgen.FE3DTetra(9, 9, 9, 2)
	seq, err := Partition(g, 6, Options{Seed: 3, NCuts: 3})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Partition(g, 6, Options{
		Seed: 3, NCuts: 3,
		Parallel: true, ParallelDepth: 8, ParallelMinVertices: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Where, par.Where) {
		t.Error("parallel uniform partition differs from sequential")
	}
}

// TestTracerNeutral pins the acceptance criterion that attaching a tracer
// changes nothing about the partition itself.
func TestTracerNeutral(t *testing.T) {
	g := matgen.Mesh2DTri(30, 30, 0.02, 4)
	plain, err := Partition(g, 5, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var col trace.Collector
	traced, err := Partition(g, 5, Options{Seed: 11, Tracer: &col})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Where, traced.Where) || plain.EdgeCut != traced.EdgeCut {
		t.Error("tracer changed the partition result")
	}
	if len(col.Events()) == 0 {
		t.Error("tracer received no events")
	}
}

// TestStatsMatchTraceEvents checks that the counters aggregated into Stats
// across all recursion branches equal the per-event totals the tracer sees:
// the two observation channels must agree.
func TestStatsMatchTraceEvents(t *testing.T) {
	g := matgen.Mesh2DTri(30, 30, 0.02, 4)
	var col trace.Collector
	res, err := Partition(g, 6, Options{Seed: 17, Tracer: &col})
	if err != nil {
		t.Fatal(err)
	}
	passes, moves, posGain, projections := 0, 0, 0, 0
	for _, ev := range col.Events() {
		switch ev.Kind {
		case trace.KindPass:
			passes++
			moves += ev.Moves
			posGain += ev.PositiveGainMoves
		case trace.KindProject:
			projections++
		}
	}
	s := &res.Stats
	if s.RefinePasses != passes {
		t.Errorf("Stats.RefinePasses = %d, trace saw %d pass events", s.RefinePasses, passes)
	}
	if s.RefineMoves != moves {
		t.Errorf("Stats.RefineMoves = %d, trace saw %d moves", s.RefineMoves, moves)
	}
	if s.PositiveGainMoves != posGain {
		t.Errorf("Stats.PositiveGainMoves = %d, trace saw %d", s.PositiveGainMoves, posGain)
	}
	if s.Projections != projections {
		t.Errorf("Stats.Projections = %d, trace saw %d project events", s.Projections, projections)
	}
	if s.RefinePasses == 0 || s.Projections == 0 {
		t.Error("expected nonzero refinement and projection activity")
	}
}

// TestStatsAggregateAcrossParallelBranches repeats the agreement check with
// the parallel fan-out on: counters from concurrent bisections must all
// land in the aggregate (run with -race to catch unsynchronized adds).
func TestStatsAggregateAcrossParallelBranches(t *testing.T) {
	g := matgen.Mesh2DTri(40, 40, 0.02, 4)
	var col trace.Collector
	res, err := Partition(g, 8, Options{
		Seed: 17, Tracer: &col,
		Parallel: true, ParallelDepth: 8, ParallelMinVertices: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	passes := 0
	for _, ev := range col.Events() {
		if ev.Kind == trace.KindPass {
			passes++
		}
	}
	if res.Stats.RefinePasses != passes {
		t.Errorf("parallel Stats.RefinePasses = %d, trace saw %d", res.Stats.RefinePasses, passes)
	}
	if res.Stats.Bisections != 7 {
		t.Errorf("Bisections = %d, want 7", res.Stats.Bisections)
	}
}

// TestKWayTraceEvents checks the direct k-way V-cycle emits the same event
// vocabulary: levels, one initial event, per-level passes and projections.
func TestKWayTraceEvents(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 2)
	var col trace.Collector
	res, err := PartitionKWay(g, 7, Options{Seed: 5, Tracer: &col})
	if err != nil {
		t.Fatal(err)
	}
	var levels, initials, passes, projects, phases int
	for _, ev := range col.Events() {
		switch ev.Kind {
		case trace.KindLevel:
			levels++
		case trace.KindInitial:
			initials++
		case trace.KindPass:
			passes++
		case trace.KindProject:
			projects++
		case trace.KindPhase:
			phases++
		}
	}
	if levels != res.Stats.Levels {
		t.Errorf("level events = %d, Stats.Levels = %d", levels, res.Stats.Levels)
	}
	if initials != 1 {
		t.Errorf("initial events = %d, want 1 (inner recursion must be suppressed)", initials)
	}
	if projects != res.Stats.Levels-1 || projects != res.Stats.Projections {
		t.Errorf("project events = %d, want %d (Stats has %d)",
			projects, res.Stats.Levels-1, res.Stats.Projections)
	}
	if passes != res.Stats.RefinePasses || passes == 0 {
		t.Errorf("pass events = %d, Stats.RefinePasses = %d", passes, res.Stats.RefinePasses)
	}
	if phases != 4 {
		t.Errorf("phase events = %d, want 4", phases)
	}
}

// TestCancellation checks every driver returns a wrapped context error when
// its context is already cancelled, and that Bisect returns no bisection.
func TestCancellation(t *testing.T) {
	g := matgen.Mesh2DTri(30, 30, 0.02, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Seed: 1, Context: ctx}

	if _, err := Partition(g, 4, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("Partition: err = %v, want context.Canceled", err)
	}
	if _, err := PartitionKWay(g, 4, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("PartitionKWay: err = %v, want context.Canceled", err)
	}
	if _, err := PartitionWeighted(g, []float64{1, 2}, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("PartitionWeighted: err = %v, want context.Canceled", err)
	}
	if b, _, err := Bisect(g, 0, opts, rand.New(rand.NewSource(1)), nil); b != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("Bisect: bisection %v, err = %v; want nil, context.Canceled", b != nil, err)
	}
}

// TestContextNeutral checks that threading an un-cancelled context changes
// nothing about the result.
func TestContextNeutral(t *testing.T) {
	g := matgen.Mesh2DTri(30, 30, 0.02, 4)
	plain, err := Partition(g, 5, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := Partition(g, 5, Options{Seed: 11, Context: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Where, withCtx.Where) {
		t.Error("context changed the partition result")
	}
}
