package refine

import (
	"math/rand"
	"testing"

	"mlpart/internal/matgen"
)

func benchBisection(b *testing.B, seed int64) (*Bisection, []int) {
	b.Helper()
	g := matgen.FE3DTetra(16, 16, 16, seed)
	n := g.NumVertices()
	where := make([]int, n)
	for i := n / 2; i < n; i++ {
		where[i] = 1
	}
	return NewBisection(g, where), where
}

func BenchmarkNewBisection(b *testing.B) {
	b.ReportAllocs()
	g := matgen.FE3DTetra(16, 16, 16, 1)
	n := g.NumVertices()
	where := make([]int, n)
	for i := n / 2; i < n; i++ {
		where[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewBisection(g, where)
	}
}

func BenchmarkMove(b *testing.B) {
	b.ReportAllocs()
	bis, _ := benchBisection(b, 2)
	rng := rand.New(rand.NewSource(3))
	n := bis.G.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bis.Move(rng.Intn(n), nil)
	}
}

func BenchmarkRefinePolicies(b *testing.B) {
	b.ReportAllocs()
	for _, p := range []Policy{GR, KLR, BGR, BKLR, BKLGR} {
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bis, _ := benchBisection(b, 4)
				b.StartTimer()
				Refine(bis, p, Options{})
			}
		})
	}
}

func BenchmarkGainBucketsOps(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 14
	bk := NewGainBuckets(n, 64)
	rng := rand.New(rand.NewSource(5))
	for v := 0; v < n; v++ {
		bk.Insert(v, rng.Intn(129)-64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok := bk.PopMax()
		if !ok {
			b.StopTimer()
			for u := 0; u < n; u++ {
				bk.Insert(u, rng.Intn(129)-64)
			}
			b.StartTimer()
			continue
		}
		bk.Insert(v, rng.Intn(129)-64)
	}
}
