// Package workspace provides the arena of reusable scratch buffers behind
// the multilevel pipeline's hot path, in the spirit of METIS's wspace.
// Every coarsening level, refinement pass and initial-partitioning trial
// needs a handful of vertex-sized integer and boolean arrays whose
// lifetime is bounded by a single call; allocating them fresh dominates
// the constant factor the paper's 10-35x speedup claim depends on.
//
// One engine call owns one Workspace. multilevel's Partition,
// PartitionKWay and PartitionWeighted create it with new, thread it
// through every bisection, coarsening hierarchy, refinement pass and extra
// cycle of the call, and drop it when the call returns; each goroutine the
// call spawns (a parallel recursion branch, a parallel NCuts trial) gets
// its own. Nested dissection threads one arena through the bisections of
// a recursion branch (multilevel.Bisect), and refine.RefineKWay, called
// without one, makes its own. A buffer released anywhere in the call is
// reused by every later
// request it can hold: partitioning a 125k-vertex FE3D mesh at k=32
// allocates 87 MB, where one pooled workspace per bisection allocated
// 658 MB.
//
// Free buffers are lent best-fit. A request n that finds a free buffer of
// capacity at least 2n, and would leave at least minSplit elements over,
// is *split*: it gets the exact-size front s[:n:n] and the rest stays free.
// Without splitting, a small request late in the call would take a
// finest-level buffer whole, and the arena would hold far more capacity
// than the call ever uses at once. New buffers are allocated at their
// exact size.
//
// Nothing is kept between calls. A process-wide pool of call-sized arenas
// allocated less still, but idle arenas are live heap that the garbage
// collector's pacing then doubles: on the daemon benchmark it raised peak
// RSS by 49-63% on fe3d-json, 40-77% on soc-csrb-eco and 46-59% on
// fe3d-session, against about +9% for the per-call arena. The one arena
// that does outlive a call is a graph session's: it refines its resident
// graph at every delta batch, and counts Bytes in its resident footprint.
//
// Invariants:
//
//   - A buffer obtained from a Workspace must be returned (PutInt etc.) or
//     abandoned to the garbage collector — never both retained by a caller
//     AND returned. No buffer may outlive the owner of the arena (the
//     call, or the session); results that do are copied into fresh
//     allocations (see refine.(*Bisection).Detach).
//   - Buffers come back with arbitrary contents unless the getter says
//     otherwise (IntFilled, Bool); callers must fully initialize whatever
//     they read.
//   - A Workspace is NOT safe for concurrent use. A buffer may move
//     between workspaces (a parallel branch releases into its own what its
//     parent drew), but only with a happens-before edge such as a
//     goroutine start or a WaitGroup.
package workspace

import "math/rand"

// maxFree bounds the number of idle buffers retained per type so a
// pathological size mix cannot pin unbounded memory. One FE3D partition
// ends with a few hundred free buffers.
const maxFree = 512

// minSplit is the smallest remainder, in elements, worth keeping free
// when a request is split off a larger buffer.
const minSplit = 4096

// Workspace is a per-goroutine free list of scratch buffers.
type Workspace struct {
	ints  [][]int
	bools [][]bool
}

// Bytes returns the capacity, in bytes, of the buffers ws holds free.
func (ws *Workspace) Bytes() int64 {
	if ws == nil {
		return 0
	}
	var b int64
	for _, s := range ws.ints {
		b += int64(cap(s)) * 8
	}
	for _, s := range ws.bools {
		b += int64(cap(s))
	}
	return b
}

// Int returns a length-n []int with arbitrary contents. A nil Workspace
// falls back to plain allocation, so ws-threaded code paths need no nil
// checks.
func (ws *Workspace) Int(n int) []int {
	if ws == nil {
		return make([]int, n)
	}
	return take(&ws.ints, n)
}

// IntFilled returns a length-n []int with every element set to v.
func (ws *Workspace) IntFilled(n, v int) []int {
	s := ws.Int(n)
	for i := range s {
		s[i] = v
	}
	return s
}

// PutInt returns a buffer obtained from Int/IntFilled to the free list.
// Passing a slice that was never pooled is allowed (it simply joins the
// list); passing one still referenced elsewhere is not.
func (ws *Workspace) PutInt(s []int) {
	if ws != nil {
		put(&ws.ints, s)
	}
}

// Bool returns a length-n []bool cleared to false.
func (ws *Workspace) Bool(n int) []bool {
	if ws == nil {
		return make([]bool, n)
	}
	s := take(&ws.bools, n)
	clear(s)
	return s
}

// PutBool returns a buffer obtained from Bool to the free list.
func (ws *Workspace) PutBool(s []bool) {
	if ws != nil {
		put(&ws.bools, s)
	}
}

// PermInto writes a random permutation of [0,n) into p (typically a pooled
// buffer) and returns p[:n]. It consumes the RNG exactly like rng.Perm(n) —
// including the i = 0 draw — so pooled and allocating code paths produce
// bit-identical results for the same seed.
func PermInto(rng *rand.Rand, n int, p []int) []int {
	p = p[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// take returns a length-n buffer from free, allocating an exact-size one
// when nothing fits. It picks the smallest free buffer with capacity >= n,
// so the big finest-level buffers stay available for the requests that
// need them, and splits that buffer when the request would use at most
// half of it and the rest is at least minSplit elements.
func take[T any](free *[][]T, n int) []T {
	best := -1
	for i, s := range *free {
		if cap(s) >= n && (best < 0 || cap(s) < cap((*free)[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]T, n)
	}
	s := (*free)[best]
	if c := cap(s); c >= 2*n && c-n >= minSplit {
		(*free)[best] = s[n:c]
		return s[:n:n]
	}
	last := len(*free) - 1
	(*free)[best] = (*free)[last]
	(*free)[last] = nil
	*free = (*free)[:last]
	return s[:n]
}

// put adds s, at its full capacity, to free unless free is at maxFree.
func put[T any](free *[][]T, s []T) {
	if cap(s) == 0 || len(*free) >= maxFree {
		return
	}
	*free = append(*free, s[:cap(s)])
}
