package multilevel

import (
	"context"
	"sync"

	"mlpart/internal/faults"
	"mlpart/internal/workspace"
)

// Recursion is the fan-out rule and failure record shared by the drivers
// that split a graph in two and recurse on the halves: the engine's
// recursive bisection and nested dissection (internal/ordering). It
// decides whether the two halves of a split run on separate goroutines,
// runs the spawned ones guarded, records the first failure of any branch
// — a cancelled context, an injected error or a recovered panic — and
// tells every branch when to stop descending. It is safe for concurrent
// use by the branches of one run.
type Recursion struct {
	ctx         context.Context
	site        string // the boundary a recovered panic is attributed to
	parallel    bool
	maxDepth    int
	minVertices int

	mu  sync.Mutex
	err error // first failure of any branch
}

// NewRecursion returns the recursion state of one run under opts: its
// Context, and fan-out from Parallel, ParallelDepth and
// ParallelMinVertices with the engine's defaults. Panics recovered on its
// branches are attributed to site.
func NewRecursion(opts Options, site string) *Recursion {
	opts = opts.withDefaults()
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return &Recursion{
		ctx:         ctx,
		site:        site,
		parallel:    opts.Parallel,
		maxDepth:    opts.ParallelDepth,
		minVertices: opts.ParallelMinVertices,
	}
}

// Fail records err as the run's failure; a failure already recorded wins.
func (r *Recursion) Fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// Err returns the run's first failure, or nil.
func (r *Recursion) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Stop reports whether a branch should stop descending: the context is
// done (recorded as the failure) or some branch has already failed. It is
// the only cancellation probe, checked at recursion steps and level
// boundaries, never inside refinement passes.
func (r *Recursion) Stop() bool {
	if err := r.ctx.Err(); err != nil {
		r.Fail(err)
		return true
	}
	return r.Err() != nil
}

// Guard runs fn and records a panic in it as the run's failure, so the
// panic neither unwinds past a sibling's join nor, on a spawned
// goroutine, kills the process.
func (r *Recursion) Guard(fn func()) {
	defer func() {
		if p := recover(); p != nil {
			r.Fail(faults.AsPanic(r.site, p))
		}
	}()
	fn()
}

// Fork runs the two halves of a split made at recursion depth of a graph
// with n vertices. With Parallel set, depth below ParallelDepth and n
// above ParallelMinVertices, the left half runs on a new goroutine with
// an arena of its own while the right half keeps ws, both guarded, and
// Fork returns once both have; deeper or smaller splits run in order on
// ws, since goroutine overhead dominates there. Each half derives its own
// seed, so both schedules give the same result.
func (r *Recursion) Fork(depth, n int, ws *workspace.Workspace, left, right func(*workspace.Workspace)) {
	if !r.parallel || depth >= r.maxDepth || n <= r.minVertices {
		left(ws)
		right(ws)
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Guard(func() { left(new(workspace.Workspace)) })
	}()
	r.Guard(func() { right(ws) })
	wg.Wait()
}

// DeriveSeed produces a child RNG seed from the parent seed and the branch
// path, keeping parallel and sequential runs identical.
func DeriveSeed(seed int64, branch int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(branch)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
