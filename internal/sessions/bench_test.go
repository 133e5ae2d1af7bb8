package sessions

import (
	"testing"

	"mlpart/internal/matgen"
)

// BenchmarkDeltaRepair is the acceptance benchmark for streaming
// repartitioning: on a 125k-vertex FE 3D mesh, a <=1% delta batch
// repaired incrementally (the ladder's boundary rung) must beat
// re-running a full multilevel V-cycle over the whole graph. The
// boundary and vcycle arms' batches are weight toggles on existing mesh
// edges, so the topology, memory footprint and drift stay constant across
// iterations and the two arms see identical work. The churn arm repairs
// at the boundary tier too, but alternates churnBatches, which add and
// remove edges, so each snapshot rebuild follows an entry count that
// grows and shrinks.
func BenchmarkDeltaRepair(b *testing.B) {
	g := matgen.FE3DTetra(50, 50, 50, 3)
	n := g.NumVertices()
	b.Logf("mesh: %d vertices, %d edges", n, g.NumEdges())

	// ~1% of vertices worth of ops, toggling the weight of existing
	// edges between 1 and 2. Using each vertex's first neighbor
	// guarantees the edge exists.
	batchFor := func(iter int) []Op {
		size := n / 100
		ops := make([]Op, 0, size)
		for i := 0; i < size; i++ {
			u := (i * 97) % n
			v := -1
			for e := g.Xadj[u]; e < g.Xadj[u+1]; e++ {
				v = int(g.Adjncy[e])
				break
			}
			if v < 0 {
				continue
			}
			ops = append(ops, Op{Op: OpAdd, U: u, V: v, W: 1 + (iter % 2)})
		}
		return ops
	}

	churn := churnBatches(g, 11)

	for _, arm := range []struct {
		name string
		run  func(b *testing.B, m *Manager, id string, iter int)
	}{
		{"boundary", func(b *testing.B, m *Manager, id string, iter int) {
			st, err := m.Apply(id, batchFor(iter))
			if err != nil {
				b.Fatal(err)
			}
			if st.LastRepair != "boundary" {
				b.Fatalf("ladder escalated to %q; the benchmark premise broke", st.LastRepair)
			}
		}},
		{"churn", func(b *testing.B, m *Manager, id string, iter int) {
			st, err := m.Apply(id, churn[iter%2])
			if err != nil {
				b.Fatal(err)
			}
			if st.LastRepair != "boundary" {
				b.Fatalf("ladder escalated to %q; the benchmark premise broke", st.LastRepair)
			}
		}},
		{"vcycle", func(b *testing.B, m *Manager, id string, iter int) {
			if _, err := m.Apply(id, batchFor(iter)); err != nil {
				b.Fatal(err)
			}
			if _, err := m.Repair(id, "vcycle"); err != nil {
				b.Fatal(err)
			}
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			m, err := NewManager(Options{MaxSessionBytes: 1 << 31, MaxResidentBytes: 1 << 31})
			if err != nil {
				b.Fatal(err)
			}
			st, err := m.Create(g, Config{K: 32, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arm.run(b, m, st.ID, i)
			}
			b.StopTimer()
			fin, err := m.Get(st.ID, false)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(fin.Cut), "final-cut")
		})
	}
}
