package mlpart

import (
	"fmt"
	"math"

	"mlpart/internal/errlist"
	"mlpart/internal/kway"
	"mlpart/internal/metrics"
	"mlpart/internal/refine"
)

// RepartitionOptions configures Repartition. Like Options it is part of
// the wire schema shared by the CLI and the mlserved daemon (wire.go).
type RepartitionOptions struct {
	// Ubfactor is the balance target per part. 0 and exactly 1 both mean
	// 1.05: exactly 1 does not request perfect balance. Values in (0, 1)
	// are rejected: a part can never weigh less than its target times one.
	Ubfactor float64 `json:"ubfactor,omitempty"`
	// MigrationWeight trades cut quality against data movement: higher
	// values keep more vertices in their incumbent part (0 means 1.0).
	// Negative values are rejected.
	MigrationWeight float64 `json:"migration_weight,omitempty"`
	// Seed orders the rebalancing sweeps deterministically.
	Seed int64 `json:"seed,omitempty"`
}

// Validate rejects option values that would silently misbehave inside the
// rebalancing sweeps (an Ubfactor below 1 makes every part overweight; a
// negative MigrationWeight rewards churn). A nil receiver (the default
// configuration) is always valid; like (*Options).Validate it reports
// every bad field, in field order, joined with "; ", and lets servers
// classify a malformed configuration as a client error up front.
func (o *RepartitionOptions) Validate() error {
	if o == nil {
		return nil
	}
	var errs []error
	if err := metrics.ValidateUbfactor(o.Ubfactor); err != nil {
		errs = append(errs, fmt.Errorf("RepartitionOptions.Ubfactor = %v, %w", o.Ubfactor, err))
	}
	if math.IsNaN(o.MigrationWeight) || math.IsInf(o.MigrationWeight, 0) {
		errs = append(errs, fmt.Errorf("RepartitionOptions.MigrationWeight = %v, want a finite value", o.MigrationWeight))
	} else if o.MigrationWeight < 0 {
		errs = append(errs, fmt.Errorf("RepartitionOptions.MigrationWeight = %v, want >= 0 (0 means the default 1.0)", o.MigrationWeight))
	}
	if err := errlist.Join(errs...); err != nil {
		return fmt.Errorf("mlpart: %w", err)
	}
	return nil
}

// rebalance returns the options Repartition runs with, every default
// resolved by the rebalancer itself (a nil receiver is the default
// configuration).
func (o *RepartitionOptions) rebalance() kway.RebalanceOptions {
	var c RepartitionOptions
	if o != nil {
		c = *o
	}
	return kway.RebalanceOptions{Ubfactor: c.Ubfactor, MigrationWeight: c.MigrationWeight, Seed: c.Seed}.Plan()
}

// ResultKey renders the options as Repartition runs them, defaults
// applied by the rebalancer itself, so options with equal keys produce
// identical results; the service result cache keys on it the way it
// keys on (*Options).ResultKey.
func (o *RepartitionOptions) ResultKey() string {
	return fmt.Sprintf("%+v", o.rebalance())
}

// RepartitionResult is the outcome of adapting a partition.
type RepartitionResult struct {
	// Where is the adapted partition vector.
	Where []int
	// EdgeCut is the adapted partition's cut.
	EdgeCut int
	// PartWeights are the adapted part weights under the graph's current
	// vertex weights.
	PartWeights []int
	// MigratedWeight is the total vertex weight assigned to a different
	// part than in the incumbent partition — the data that must move.
	MigratedWeight int
}

// Repartition adapts an existing k-way partition to the graph's *current*
// vertex weights — the dynamic load-balancing step of adaptive
// computations, where per-vertex work changes after an initial placement
// (e.g. adaptive mesh refinement). Unlike calling Partition from scratch,
// it minimizes the weight that migrates away from the incumbent placement
// oldWhere while restoring balance and keeping the cut low.
//
// oldWhere must assign every vertex a part in [0, k). It is not modified.
func Repartition(g *Graph, k int, oldWhere []int, opts *RepartitionOptions) (*RepartitionResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("mlpart: k = %d, want >= 1", k)
	}
	if len(oldWhere) != g.NumVertices() {
		return nil, fmt.Errorf("mlpart: len(oldWhere) = %d, want n = %d", len(oldWhere), g.NumVertices())
	}
	for v, p := range oldWhere {
		if p < 0 || p >= k {
			return nil, fmt.Errorf("mlpart: oldWhere[%d] = %d, want a part in [0,%d)", v, p, k)
		}
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ro := opts.rebalance()
	where := append([]int(nil), oldWhere...)
	p := kway.NewPartition(g, k, where)
	refine.RepartitionKWay(p, oldWhere, ro, nil, nil)
	migrated := 0
	for v, w := range p.Where {
		if w != oldWhere[v] {
			migrated += g.Vwgt[v]
		}
	}
	return &RepartitionResult{
		Where:          p.Where,
		EdgeCut:        p.Cut,
		PartWeights:    p.Pwgt,
		MigratedWeight: migrated,
	}, nil
}
