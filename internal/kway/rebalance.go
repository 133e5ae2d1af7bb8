package kway

import (
	"math/rand"

	"mlpart/internal/metrics"
)

// RebalanceOptions configures Rebalance.
type RebalanceOptions struct {
	// Ubfactor is the balance target; metrics.Ubfactor resolves the
	// default.
	Ubfactor float64
	// MigrationWeight trades cut quality against data movement: the
	// penalty per unit of vertex weight that ends up away from its
	// incumbent part. 0 means 1.0; larger values keep more vertices home.
	MigrationWeight float64
	// MaxPasses bounds the sweeps (0 means 32).
	MaxPasses int
	// Seed orders the sweeps deterministically.
	Seed int64
}

// Plan returns o as Rebalance runs it, every default applied. Options
// with equal plans rebalance identically.
func (o RebalanceOptions) Plan() RebalanceOptions { return o.withDefaults() }

func (o RebalanceOptions) withDefaults() RebalanceOptions {
	o.Ubfactor = metrics.Ubfactor(o.Ubfactor)
	if o.MigrationWeight == 0 {
		o.MigrationWeight = 1.0
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = 32
	}
	return o
}

// Rebalance adapts the partition p to its graph's current vertex weights —
// the dynamic repartitioning problem of adaptive computations, where the
// mesh (or the per-vertex work) changed after an initial placement. It
// moves vertices out of overweight parts into adjacent lighter parts,
// choosing moves by edge-cut gain minus a migration penalty against the
// incumbent placement `orig` (vertices prefer to stay, or return, home).
// It returns the total vertex weight that ended up away from `orig`.
//
// The loop terminates when every part is within the tolerance or no
// admissible move remains; each pass strictly reduces total overweight.
func Rebalance(p *Partition, orig []int, opts RebalanceOptions) (migrated int) {
	opts = opts.withDefaults()
	g := p.G
	n := g.NumVertices()
	if n == 0 || p.K < 2 {
		return migratedWeight(p, orig)
	}
	limit := metrics.PartBounds(g.TotalVertexWeight()/p.K, opts.Ubfactor, 1).Hi

	order := rand.New(rand.NewSource(opts.Seed)).Perm(n)
	ed := make([]int, p.K)
	seen := make([]int, p.K)
	stamp := 0

	for pass := 0; pass < opts.MaxPasses; pass++ {
		over := 0
		for _, w := range p.Pwgt {
			if w > limit {
				over += w - limit
			}
		}
		if over == 0 {
			break
		}
		moves := 0
		for _, v := range order {
			from := p.Where[v]
			if p.Pwgt[from] <= limit {
				continue // only drain overweight parts
			}
			adj := g.Neighbors(v)
			wgt := g.EdgeWeights(v)
			stamp++
			for i, u := range adj {
				pu := p.Where[u]
				if seen[pu] != stamp {
					seen[pu] = stamp
					ed[pu] = 0
				}
				ed[pu] += wgt[i]
			}
			id := 0
			if seen[from] == stamp {
				id = ed[from]
			}
			// Score candidate destinations: cut gain minus migration
			// delta, requiring the destination to have room.
			best := -1
			bestScore := 0.0
			migNow := 0
			if from != orig[v] {
				migNow = g.Vwgt[v]
			}
			for i := range adj {
				to := p.Where[adj[i]]
				if to == from || seen[to] != stamp {
					continue
				}
				// Admissible when the destination has room, or — so that
				// weight can cascade through saturated neighbor parts —
				// when the move strictly lowers the heavier of the pair.
				if p.Pwgt[to]+g.Vwgt[v] > limit &&
					p.Pwgt[to]+g.Vwgt[v] >= p.Pwgt[from] {
					continue
				}
				migAfter := 0
				if to != orig[v] {
					migAfter = g.Vwgt[v]
				}
				score := float64(ed[to]-id) - opts.MigrationWeight*float64(migAfter-migNow)
				if best < 0 || score > bestScore ||
					(score == bestScore && p.Pwgt[to] < p.Pwgt[best]) {
					best = to
					bestScore = score
				}
			}
			if best < 0 {
				continue
			}
			p.Where[v] = best
			p.Pwgt[from] -= g.Vwgt[v]
			p.Pwgt[best] += g.Vwgt[v]
			p.Cut -= ed[best] - id
			moves++
		}
		if moves == 0 {
			break
		}
	}
	return migratedWeight(p, orig)
}

func migratedWeight(p *Partition, orig []int) int {
	m := 0
	for v, w := range p.Where {
		if w != orig[v] {
			m += p.G.Vwgt[v]
		}
	}
	return m
}
