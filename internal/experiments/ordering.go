package experiments

import (
	"time"

	"mlpart/internal/matgen"
	"mlpart/internal/mmd"
	"mlpart/internal/multilevel"
	"mlpart/internal/ordering"
	"mlpart/internal/sparse"
)

// OrderingRow is one group of Figure 5: the factorization operation counts
// of the three orderings on one matrix, with ratios relative to MLND
// (bars above 1.0 mean MLND wins, as in the paper's plot).
type OrderingRow struct {
	Graph      string
	N          int
	MLNDFlops  float64
	MMDFlops   float64
	SNDFlops   float64
	RatioMMD   float64 // MMD / MLND
	RatioSND   float64 // SND / MLND
	MLNDHeight int     // elimination tree heights (concurrency proxy)
	MMDHeight  int
	// Ordering times; the paper reports MMD 2-3x faster than MLND serially
	// and SND substantially slower than MLND.
	MLNDTime time.Duration
	MMDTime  time.Duration
	SNDTime  time.Duration
}

// Ordering reproduces Figure 5: MLND, MMD and SND order every workload and
// the symbolic Cholesky operation counts are compared.
func Ordering(workloads []matgen.Named, seed int64) []OrderingRow {
	var rows []OrderingRow
	opts := ordering.Options{ML: multilevel.Options{Seed: seed}}
	for _, w := range workloads {
		g := w.Graph
		row := OrderingRow{Graph: w.Name, N: g.NumVertices()}

		t0 := time.Now()
		mlndPerm, err := ordering.MLND(g, opts)
		if err != nil {
			panic(err)
		}
		row.MLNDTime = time.Since(t0)
		mlnd, err := sparse.Analyze(g, mlndPerm)
		if err != nil {
			panic(err)
		}
		row.MLNDFlops = mlnd.Flops
		row.MLNDHeight = mlnd.Height

		t0 = time.Now()
		mdPerm := mmd.Order(g)
		row.MMDTime = time.Since(t0)
		md, err := sparse.Analyze(g, mdPerm)
		if err != nil {
			panic(err)
		}
		row.MMDFlops = md.Flops
		row.MMDHeight = md.Height

		t0 = time.Now()
		sndPerm, err := ordering.SND(g, opts)
		if err != nil {
			panic(err)
		}
		row.SNDTime = time.Since(t0)
		snd, err := sparse.Analyze(g, sndPerm)
		if err != nil {
			panic(err)
		}
		row.SNDFlops = snd.Flops

		if row.MLNDFlops > 0 {
			row.RatioMMD = row.MMDFlops / row.MLNDFlops
			row.RatioSND = row.SNDFlops / row.MLNDFlops
		}
		rows = append(rows, row)
	}
	return rows
}
