package sessions

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/matgen"
)

// churnBatches builds two alternating delta batches on g, each about 1%
// of the vertex count in ops, shaped like the daemon benchmark's session
// batches: the even batch raises the weight of n/200 existing edges by one
// and adds n/200 new edges between vertices two hops apart; the odd batch
// restores the weights and removes the new edges. After every odd batch
// the graph is g again, so the entry count grows and shrinks by n/100 each
// batch.
func churnBatches(g *graph.Graph, seed int64) [2][]Op {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	count := max(n/200, 1)
	chosen := map[[2]int]bool{}
	key := func(u, v int) [2]int { return [2]int{min(u, v), max(u, v)} }
	var even, odd []Op
	for tries := 0; len(even) < count && tries < 100*count; tries++ {
		u := rng.Intn(n)
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		j := rng.Intn(len(nb))
		v, w := nb[j], g.EdgeWeights(u)[j]
		if chosen[key(u, v)] {
			continue
		}
		chosen[key(u, v)] = true
		even = append(even, Op{Op: OpAdd, U: u, V: v, W: w + 1})
		odd = append(odd, Op{Op: OpAdd, U: u, V: v, W: w})
	}
	for added, tries := 0, 0; added < count && tries < 100*count; tries++ {
		u := rng.Intn(n)
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		nb2 := g.Neighbors(nb[rng.Intn(len(nb))])
		v := nb2[rng.Intn(len(nb2))]
		if v == u || g.HasEdge(u, v) || chosen[key(u, v)] {
			continue
		}
		chosen[key(u, v)] = true
		added++
		even = append(even, Op{Op: OpAdd, U: u, V: v, W: 1})
		odd = append(odd, Op{Op: OpRemove, U: u, V: v})
	}
	return [2][]Op{even, odd}
}

// applyAllocBound pins the bytes one boundary Apply allocates in steady
// state on a 27k-vertex FE3D mesh at k=32 with churnBatches: the undo log,
// the part-weight copy and the returned State, 11,632 bytes measured, plus
// 5%. It does not scale with the graph: the CSR snapshot is rebuilt into
// the session's arrays and the repair refines in the session's arena.
// Building a fresh snapshot and borrowing a pooled arena per batch
// allocated 5,365,148 bytes per Apply on this mesh.
const applyAllocBound = 12_200

// TestApplyAllocBound: a boundary Apply allocates what it returns and its
// undo log, not a copy of the graph.
func TestApplyAllocBound(t *testing.T) {
	g := matgen.FE3DTetra(30, 30, 30, 3)
	m := mustManager(t, Options{})
	st := mustCreate(t, m, g, Config{K: 32, Seed: 7})
	batches := churnBatches(g, 11)
	apply := func(i int) {
		got, err := m.Apply(st.ID, batches[i%2])
		if err != nil {
			t.Fatal(err)
		}
		if got.LastRepair != "boundary" {
			t.Fatalf("batch %d repaired at %q, want boundary", i, got.LastRepair)
		}
	}
	// Warm up: the first batches materialize the CSR and fill the arena.
	for i := 0; i < 4; i++ {
		apply(i)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		apply(i)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per Apply (%d ops per batch)", perOp, len(batches[0]))
	if perOp > applyAllocBound {
		t.Errorf("boundary Apply allocated %d bytes, bound %d", perOp, applyAllocBound)
	}
}

// TestResidentBytesWithinEstimate: the bytes a session reports after
// repairs at every tier count its CSR snapshot and repair arena, and stay
// within Create's admission estimate plus the growth estimate of the
// batches applied.
func TestResidentBytesWithinEstimate(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"fe3d", matgen.FE3DTetra(20, 20, 20, 3), 32},
		{"soc", matgen.SocialNetwork(4096, 4, 1), 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mustManager(t, Options{})
			st := mustCreate(t, m, tc.g, Config{K: tc.k, Seed: 3})
			limit := estimateCreateBytes(tc.g)
			batches := churnBatches(tc.g, 5)
			for i, mode := range []string{"", "full", "", "vcycle", "", "full", ""} {
				ops := batches[i%2]
				limit += estimateGrowth(ops)
				got, err := m.Apply(st.ID, ops)
				if err != nil {
					t.Fatal(err)
				}
				if mode != "" {
					if got, err = m.Repair(st.ID, mode); err != nil {
						t.Fatal(err)
					}
				}
				if got.ResidentBytes > limit {
					t.Errorf("batch %d (%s): resident %d bytes, estimate %d", i, got.LastRepair, got.ResidentBytes, limit)
				}
				s := m.sessions[st.ID]
				if held := s.dg.bytes() + s.ws.Bytes(); s.ws.Bytes() == 0 || got.ResidentBytes < held {
					t.Errorf("batch %d: resident %d bytes does not count the arena's %d (graph %d)", i, got.ResidentBytes, s.ws.Bytes(), s.dg.bytes())
				}
			}
		})
	}
}

// TestChaosRepairPanicReleasesArena: a repair that panics abandons what it
// had drawn from the session's arena, and the session must not keep those
// pieces. One plan panics a boundary repair inside its first refinement
// pass, with the refiner's arrays and the copy of where lent out, and a
// later explicit full repair at the session/repair site. After every batch
// the arena lends at most the where vector, and the resident bytes stay
// within TestResidentBytesWithinEstimate's bound.
func TestChaosRepairPanicReleasesArena(t *testing.T) {
	g := matgen.FE3DTetra(20, 20, 20, 3)
	cfg := Config{K: 32, Seed: 3}
	// A dry run counts the kway/pass hits of Create, so that the plan's
	// first kway/pass panic lands in the first repair.
	count := faults.MustParse(faults.SiteSessionApply + "=error@1000000000")
	mustCreate(t, mustManager(t, Options{Injector: count}), g, cfg)
	plan := fmt.Sprintf("%s=panic@%d;%s=panic@3", faults.SiteKWayPass, count.HitCount(faults.SiteKWayPass)+1, faults.SiteSessionRepair)
	m := mustManager(t, Options{Injector: faults.MustParse(plan)})
	st := mustCreate(t, m, g, cfg)
	limit := estimateCreateBytes(g)
	batches := churnBatches(g, 5)
	for i, mode := range []string{"", "full", "", "full", ""} {
		ops := batches[i%2]
		limit += estimateGrowth(ops)
		got, err := m.Apply(st.ID, ops)
		if err != nil {
			t.Fatal(err)
		}
		if mode != "" {
			if rep, rerr := m.Repair(st.ID, mode); rerr == nil {
				got = rep
			} else if !errors.As(rerr, new(*faults.PanicError)) {
				t.Fatalf("batch %d: repair failed with %v, want the injected panic", i, rerr)
			} else if got, err = m.Get(st.ID, false); err != nil {
				t.Fatal(err)
			}
		}
		s := m.sessions[st.ID]
		if lent, where := s.ws.Lent(), int64(cap(s.where))*8; lent > where {
			t.Errorf("batch %d (%s): the arena lends %d bytes, the where vector holds %d", i, mode, lent, where)
		}
		if got.ResidentBytes > limit {
			t.Errorf("batch %d (%s): resident %d bytes, estimate %d", i, mode, got.ResidentBytes, limit)
		}
	}
	if f := m.Stats().RepairFailures; f != 2 {
		t.Fatalf("%d repairs failed, want the 2 the plan injects", f)
	}
}
