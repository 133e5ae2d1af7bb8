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
// reused by every later request it can hold: partitioning a 125k-vertex
// FE3D mesh at k=32 allocates 49 MB, where one pooled workspace per
// bisection allocated 658 MB and an arena that never merged its free
// pieces 76 MB.
//
// Every allocation the arena makes is a block, allocated at the size of
// the request that found nothing free. A block records its free space as
// extents sorted by offset. A request n is served best-fit from the
// smallest free extent that holds it; an extent of at least 2n that would
// leave at least minSplit elements over is *split*, so the request gets
// its exact-size front and the rest stays free, and any other extent is
// lent whole. A returned piece merges with the free extents next to it in
// its block, so the pieces a hierarchy's levels were cut into join up
// again for the next, larger request. The arena finds a returned piece's
// block through a map keyed by the piece's first element. TrimInt hands a
// lent buffer's tail back the same way, which lets a coarsening
// contraction keep its upper-bound staging arrays in place.
//
// A piece put into an arena that did not lend it becomes a new block of
// the receiving arena, wholly free: a parallel branch releasing the
// subgraph its parent drew, or an NCuts winner released into the caller's
// arena. The lending arena never sees that piece again; it stays lent
// there until the arena is dropped.
//
// Nothing is kept between calls. A process-wide pool of call-sized arenas
// allocated less still, but idle arenas are live heap that the garbage
// collector's pacing then doubles: on the daemon benchmark it raised peak
// RSS by 49-63% on fe3d-json, 40-77% on soc-csrb-eco and 46-59% on
// fe3d-session, against about +9% for the per-call arena. The one arena
// that does outlive a call is a graph session's: it refines its resident
// graph at every delta batch, and counts Bytes in its resident footprint.
// Since a block lives as long as its arena, a piece abandoned in a
// long-lived arena stays pinned there, and Bytes does not count it; the
// session replaces its arena after a failed repair.
//
// Invariants:
//
//   - A buffer obtained from a Workspace must be returned (PutInt etc.) or
//     abandoned — never both retained by a caller AND returned. No buffer
//     may outlive the owner of the arena (the call, or the session);
//     results that do are copied into fresh allocations (see
//     refine.(*Bisection).Detach).
//   - A buffer is returned at its full capacity, from its first element:
//     s[:0] and s[:k] views return the whole piece, but a buffer re-sliced
//     to start later, or to a smaller capacity, no longer matches the
//     piece it came from and is taken in as a new block.
//   - Buffers come back with arbitrary contents unless the getter says
//     otherwise (IntFilled, Bool); callers must fully initialize whatever
//     they read.
//   - A Workspace is NOT safe for concurrent use. A buffer may move
//     between workspaces (a parallel branch releases into its own what its
//     parent drew), but only with a happens-before edge such as a
//     goroutine start or a WaitGroup.
package workspace

import (
	"math/rand"
	"slices"
)

// maxBlocks bounds the blocks an arena keeps per type, so a pathological
// size mix cannot pin unbounded memory. Past it, requests that find
// nothing free and foreign pieces are left to the garbage collector. One
// 125k-vertex FE3D partition at k=32 makes 14 int blocks.
const maxBlocks = 512

// minSplit is the smallest remainder, in elements, worth keeping free
// when a request is split off a larger extent.
const minSplit = 4096

// Workspace is a per-goroutine arena of scratch buffers.
type Workspace struct {
	ints  arena[int]
	bools arena[bool]
}

// Bytes returns the bytes ws holds free.
func (ws *Workspace) Bytes() int64 {
	if ws == nil {
		return 0
	}
	return int64(ws.ints.free)*8 + int64(ws.bools.free)
}

// Lent returns the bytes of ws's blocks that are lent out: pieces not yet
// returned, and pieces abandoned or released into another arena.
func (ws *Workspace) Lent() int64 {
	if ws == nil {
		return 0
	}
	return int64(ws.ints.size-ws.ints.free)*8 + int64(ws.bools.size-ws.bools.free)
}

// Int returns a length-n []int with arbitrary contents. A nil Workspace
// falls back to plain allocation, so ws-threaded code paths need no nil
// checks.
func (ws *Workspace) Int(n int) []int {
	if ws == nil {
		return make([]int, n)
	}
	return ws.ints.take(n)
}

// IntFilled returns a length-n []int with every element set to v.
func (ws *Workspace) IntFilled(n, v int) []int {
	s := ws.Int(n)
	for i := range s {
		s[i] = v
	}
	return s
}

// PutInt returns a buffer to ws. A buffer ws did not lend becomes a block
// of ws; passing one still referenced elsewhere is not allowed.
func (ws *Workspace) PutInt(s []int) {
	if ws != nil {
		ws.ints.put(s)
	}
}

// TrimInt returns s[:n:n], a buffer whose tail past n goes back to ws: a
// piece ws lent shrinks in place and its tail merges with the free space
// next to it, and any other buffer's tail becomes a block of ws. A nil ws
// copies s[:n] into a fresh exact-size array instead, so the caller never
// pins the slack. n must not exceed cap(s).
func (ws *Workspace) TrimInt(s []int, n int) []int {
	if ws == nil {
		t := make([]int, n)
		copy(t, s[:n])
		return t
	}
	return ws.ints.trim(s, n)
}

// Bool returns a length-n []bool cleared to false.
func (ws *Workspace) Bool(n int) []bool {
	if ws == nil {
		return make([]bool, n)
	}
	s := ws.bools.take(n)
	clear(s)
	return s
}

// PutBool returns a buffer obtained from Bool to ws, as PutInt.
func (ws *Workspace) PutBool(s []bool) {
	if ws != nil {
		ws.bools.put(s)
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

// arena is one element type's blocks and the pieces lent from them.
type arena[T any] struct {
	blocks []*block[T]
	// lent maps a lent piece's first element to where it lies.
	lent map[*T]piece[T]
	// size and free count the elements of all blocks and of their free
	// extents.
	size, free int
}

// block is one allocation of an arena.
type block[T any] struct {
	buf []T
	// free lists the free extents, sorted by offset; no two touch.
	free []extent
}

// extent is the run buf[off:off+n] of a block.
type extent struct{ off, n int }

// piece records a lent extent: its block, offset and length.
type piece[T any] struct {
	b *block[T]
	extent
}

// take returns a length-n buffer, best-fit from the free extents, or a new
// exact-size block when nothing fits.
func (a *arena[T]) take(n int) []T {
	if n == 0 {
		return []T{}
	}
	var best *block[T]
	bi := 0
	for _, b := range a.blocks {
		for i, e := range b.free {
			if e.n >= n && (best == nil || e.n < best.free[bi].n) {
				best, bi = b, i
			}
		}
	}
	if best == nil {
		s := make([]T, n)
		if len(a.blocks) < maxBlocks {
			b := &block[T]{buf: s}
			a.blocks = append(a.blocks, b)
			a.size += n
			a.lend(b, extent{0, n})
		}
		return s
	}
	e := best.free[bi]
	if e.n >= 2*n && e.n-n >= minSplit {
		best.free[bi] = extent{e.off + n, e.n - n}
		e.n = n
	} else {
		best.free = slices.Delete(best.free, bi, bi+1)
	}
	a.free -= e.n
	a.lend(best, e)
	return best.buf[e.off : e.off+n : e.off+e.n]
}

// lend records e of b as lent.
func (a *arena[T]) lend(b *block[T], e extent) {
	if a.lent == nil {
		a.lent = make(map[*T]piece[T])
	}
	a.lent[&b.buf[e.off]] = piece[T]{b, e}
}

// put takes s back at its full capacity: into the block that lent it,
// merged with its free neighbours, or else as a new block.
func (a *arena[T]) put(s []T) {
	s = s[:cap(s)]
	if len(s) == 0 {
		return
	}
	key := &s[0]
	p, ok := a.lent[key]
	if ok {
		// A piece that came back smaller than it was lent is a view of
		// one that went elsewhere: the rest may still be in use.
		delete(a.lent, key)
		if p.n == len(s) {
			a.release(p.b, p.extent)
			return
		}
	}
	if len(a.blocks) >= maxBlocks {
		return
	}
	b := &block[T]{buf: s}
	a.blocks = append(a.blocks, b)
	a.size += len(s)
	a.release(b, extent{0, len(s)})
}

// trim shrinks s to s[:n:n] and takes its tail back.
func (a *arena[T]) trim(s []T, n int) []T {
	c := cap(s)
	if n == c {
		return s[:n:n]
	}
	key := &s[:c][0]
	if p, ok := a.lent[key]; ok && p.n == c {
		a.release(p.b, extent{p.off + n, c - n})
		if n == 0 {
			delete(a.lent, key)
		} else {
			p.n = n
			a.lent[key] = p
		}
	} else {
		a.put(s[n:c:c])
	}
	return s[:n:n]
}

// release frees e in b, merging it with the free extents it touches.
func (a *arena[T]) release(b *block[T], e extent) {
	a.free += e.n
	i, _ := slices.BinarySearchFunc(b.free, e.off, func(f extent, off int) int { return f.off - off })
	if i > 0 && b.free[i-1].off+b.free[i-1].n == e.off {
		i--
		e = extent{b.free[i].off, b.free[i].n + e.n}
		b.free = slices.Delete(b.free, i, i+1)
	}
	if i < len(b.free) && e.off+e.n == b.free[i].off {
		b.free[i] = extent{e.off, e.n + b.free[i].n}
		return
	}
	b.free = slices.Insert(b.free, i, e)
}
