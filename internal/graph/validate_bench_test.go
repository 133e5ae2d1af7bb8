package graph_test

import (
	"testing"

	"mlpart/internal/graph"
	"mlpart/internal/matgen"
)

// BenchmarkValidate times Validate on the benchmark workloads' graphs
// (the 125k-vertex FE3D mesh and the 65k-vertex SOC power-law graph) and
// on a 65,536-vertex star whose only asymmetric edge joins its last two
// leaves, the worst case of a per-entry search of the hub's list.
func BenchmarkValidate(b *testing.B) {
	star := graph.NewBuilder(1 << 16)
	for v := 1; v < 1<<16; v++ {
		star.AddEdge(0, v)
	}
	star.AddEdge(1<<16-2, 1<<16-1)
	asym := star.MustBuild()
	asym.Adjwgt[len(asym.Adjwgt)-1] = 2
	for _, bc := range []struct {
		name  string
		g     *graph.Graph
		valid bool
	}{
		{"fe3d", matgen.FE3DTetra(50, 50, 50, 1), true},
		{"soc", matgen.SocialNetwork(1<<16, 4, 1), true},
		{"star-asym", asym, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.g.Validate(); (err == nil) != bc.valid {
					b.Fatalf("Validate = %v", err)
				}
			}
		})
	}
}
