package kway_test

import (
	"testing"

	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/matgen"
	"mlpart/internal/metrics"
	"mlpart/internal/multilevel"
	"mlpart/internal/refine"
)

// adapt returns a copy of g with vertex weights increased in one corner,
// simulating adaptive mesh refinement concentrating work.
func adapt(g *graph.Graph, hotFraction int) *graph.Graph {
	ng := g.Clone()
	n := ng.NumVertices()
	for v := 0; v < n/hotFraction; v++ {
		ng.Vwgt[v] = 5
	}
	return ng
}

func TestRebalanceRestoresBalance(t *testing.T) {
	base := matgen.Mesh2DTri(25, 25, 0, 1)
	res, err := multilevel.Partition(base, 8, multilevel.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The computation adapts: one region becomes 5x heavier.
	g := adapt(base, 4)
	p := kway.NewPartition(g, 8, append([]int(nil), res.Where...))
	if metrics.Balance(p.Pwgt) < 1.2 {
		t.Fatalf("test premise broken: balance %v should be bad", metrics.Balance(p.Pwgt))
	}
	orig := append([]int(nil), res.Where...)
	migrated := kway.Rebalance(p, orig, kway.RebalanceOptions{Seed: 3})
	if b := metrics.Balance(p.Pwgt); b > 1.12 {
		t.Errorf("balance %v after rebalance", b)
	}
	if migrated <= 0 {
		t.Error("no migration despite imbalance")
	}
	// The hot quarter holds ~62% of the weight, so heavy migration is
	// unavoidable; just bound it away from "everything moved".
	if migrated > g.TotalVertexWeight()*3/4 {
		t.Errorf("migrated %d of %d: too much movement", migrated, g.TotalVertexWeight())
	}
	if got := refine.ComputeCut(g, p.Where); got != p.Cut {
		t.Fatalf("incremental cut %d, recomputed %d", p.Cut, got)
	}
}

func TestRebalanceNoopWhenBalanced(t *testing.T) {
	g := matgen.Grid2D(16, 16)
	res, err := multilevel.Partition(g, 4, multilevel.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := kway.NewPartition(g, 4, append([]int(nil), res.Where...))
	orig := append([]int(nil), res.Where...)
	migrated := kway.Rebalance(p, orig, kway.RebalanceOptions{Seed: 5})
	if migrated != 0 {
		t.Fatalf("migrated %d from a balanced partition", migrated)
	}
}

func TestRebalanceMigrationWeightTrade(t *testing.T) {
	// Higher migration weight must not migrate more, in aggregate.
	totLow, totHigh := 0, 0
	for seed := int64(0); seed < 4; seed++ {
		base := matgen.Mesh2DTri(20, 20, 0, seed)
		res, err := multilevel.Partition(base, 8, multilevel.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		g := adapt(base, 3)
		orig := append([]int(nil), res.Where...)
		pl := kway.NewPartition(g, 8, append([]int(nil), res.Where...))
		totLow += kway.Rebalance(pl, orig, kway.RebalanceOptions{Seed: seed, MigrationWeight: 0.1})
		ph := kway.NewPartition(g, 8, append([]int(nil), res.Where...))
		totHigh += kway.Rebalance(ph, orig, kway.RebalanceOptions{Seed: seed, MigrationWeight: 10})
	}
	if totHigh > totLow*3/2 {
		t.Errorf("high migration weight moved more: %d vs %d", totHigh, totLow)
	}
}

func TestRebalanceBetterThanRepartitionOnMigration(t *testing.T) {
	// Rebalancing an incumbent partition must move far less data than
	// partitioning from scratch (whose parts land anywhere).
	base := matgen.Mesh2DTri(30, 30, 0, 6)
	res, err := multilevel.Partition(base, 8, multilevel.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g := adapt(base, 4)
	orig := append([]int(nil), res.Where...)

	p := kway.NewPartition(g, 8, append([]int(nil), res.Where...))
	migRebalance := kway.Rebalance(p, orig, kway.RebalanceOptions{Seed: 8})

	fresh, err := multilevel.Partition(g, 8, multilevel.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	migFresh := 0
	for v := range fresh.Where {
		if fresh.Where[v] != orig[v] {
			migFresh += g.Vwgt[v]
		}
	}
	if migRebalance >= migFresh {
		t.Errorf("rebalance migrated %d, fresh partition %d: want less", migRebalance, migFresh)
	}
}

func TestRebalanceDeterministic(t *testing.T) {
	base := matgen.Grid2D(14, 14)
	res, _ := multilevel.Partition(base, 4, multilevel.Options{Seed: 10})
	g := adapt(base, 3)
	orig := append([]int(nil), res.Where...)
	a := kway.NewPartition(g, 4, append([]int(nil), res.Where...))
	b := kway.NewPartition(g, 4, append([]int(nil), res.Where...))
	kway.Rebalance(a, orig, kway.RebalanceOptions{Seed: 11})
	kway.Rebalance(b, orig, kway.RebalanceOptions{Seed: 11})
	for v := range a.Where {
		if a.Where[v] != b.Where[v] {
			t.Fatal("Rebalance not deterministic")
		}
	}
}

func TestRebalanceHotVertexHeavierThanLimit(t *testing.T) {
	// A single vertex heavier than the per-part limit cannot be placed
	// within tolerance; Rebalance must terminate anyway.
	b := graph.NewBuilder(6)
	for i := 0; i+1 < 6; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.MustBuild()
	g.Vwgt[0] = 100
	where := []int{0, 0, 0, 1, 1, 1}
	p := kway.NewPartition(g, 2, where)
	kway.Rebalance(p, append([]int(nil), where...), kway.RebalanceOptions{Seed: 12})
	// Terminated; partition still valid.
	if refine.ComputeCut(g, p.Where) != p.Cut {
		t.Fatal("state corrupted")
	}
}
