package mlpart

import (
	"math/rand"
	"slices"
	"testing"

	"mlpart/internal/sessions"
)

// TestRepartitionMatchesSessionFullRepair pins that a session's forced
// full repair and Repartition are one computation: on the same post-delta
// graph, incumbent partition, ubfactor and seed they return the same
// partition, cut and part weights.
func TestRepartitionMatchesSessionFullRepair(t *testing.T) {
	g, err := GenerateWorkload("4ELT", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sessions.NewManager(sessions.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, cfg := range []sessions.Config{
		{K: 8, Seed: 5},
		{K: 16, Seed: 2, Ubfactor: 1.03},
	} {
		st, err := m.Create(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Make a corner of the graph three times heavier: the imbalance
		// a full repair exists to fix.
		post := &Graph{Xadj: g.Xadj, Adjncy: g.Adjncy, Adjwgt: g.Adjwgt, Vwgt: slices.Clone(g.Vwgt)}
		var ops []sessions.Op
		for v := 0; v < g.NumVertices()/8; v++ {
			ops = append(ops, sessions.Op{Op: sessions.OpVwgt, U: v, W: 3})
			post.Vwgt[v] = 3
		}
		if _, err := m.Apply(st.ID, ops); err != nil {
			t.Fatal(err)
		}
		before, err := m.Get(st.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Repair(st.ID, "full")
		if err != nil {
			t.Fatal(err)
		}
		want, err := Repartition(post, cfg.K, before.Where, &RepartitionOptions{Ubfactor: cfg.Ubfactor, Seed: cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if want.MigratedWeight == 0 {
			t.Errorf("k=%d: Repartition moved nothing; the delta does not exercise the repair", cfg.K)
		}
		if !slices.Equal(got.Where, want.Where) || got.Cut != want.EdgeCut || !slices.Equal(got.PartWeights, want.PartWeights) {
			t.Errorf("k=%d: full repair cut %d weights %v, Repartition cut %d weights %v (partitions equal: %v)",
				cfg.K, got.Cut, got.PartWeights, want.EdgeCut, want.PartWeights, slices.Equal(got.Where, want.Where))
		}
		if err := m.Delete(st.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzRepartition checks Repartition's reported state over random graphs,
// incumbent partitions and vertex weights: the cut and part weights equal
// a recount of the returned partition, and the migrated weight is the
// weight of the vertices that left their part in oldWhere. The bytes of
// data are read in triples (u, v, w) as edges.
func FuzzRepartition(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 2, 3, 5, 3, 0, 2, 0, 2, 9}, uint8(6), uint8(3), int64(1), 1.0)
	f.Add([]byte{0, 1, 9, 0, 2, 9, 0, 3, 9, 0, 4, 9, 4, 5, 1, 5, 6, 1, 6, 7, 1}, uint8(10), uint8(4), int64(7), 1.2)
	f.Fuzz(func(t *testing.T, data []byte, nb, kb uint8, seed int64, ubfactor float64) {
		n := 2 + int(nb)%64
		k := 1 + int(kb)%16
		b := NewGraphBuilder(n)
		for i := 0; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				b.AddWeightedEdge(u, v, 1+int(data[i+2])%16)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for v := 0; v < n; v++ {
			b.SetVertexWeight(v, 1+rng.Intn(8))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		oldWhere := make([]int, n)
		for v := range oldWhere {
			oldWhere[v] = rng.Intn(k)
		}
		opts := &RepartitionOptions{Ubfactor: ubfactor, Seed: seed}
		res, err := Repartition(g, k, oldWhere, opts)
		if opts.Validate() != nil {
			if err == nil {
				t.Fatalf("invalid options %+v accepted", opts)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := EdgeCut(g, res.Where); got != res.EdgeCut {
			t.Fatalf("EdgeCut %d, recount %d", res.EdgeCut, got)
		}
		pwgt := make([]int, k)
		migrated := 0
		for v, p := range res.Where {
			if p < 0 || p >= k {
				t.Fatalf("Where[%d] = %d, want a part in [0,%d)", v, p, k)
			}
			pwgt[p] += g.Vwgt[v]
			if p != oldWhere[v] {
				migrated += g.Vwgt[v]
			}
		}
		if !slices.Equal(pwgt, res.PartWeights) {
			t.Fatalf("PartWeights %v, recount %v", res.PartWeights, pwgt)
		}
		if migrated != res.MigratedWeight {
			t.Fatalf("MigratedWeight %d, recount %d", res.MigratedWeight, migrated)
		}
	})
}
