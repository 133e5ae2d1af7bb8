package workspace

import (
	"slices"
	"testing"
)

func TestIntReuse(t *testing.T) {
	ws := &Workspace{}
	a := ws.Int(100)
	if len(a) != 100 {
		t.Fatalf("len = %d, want 100", len(a))
	}
	pa := &a[0]
	ws.PutInt(a)
	b := ws.Int(50)
	if &b[0] != pa {
		t.Error("expected the freed buffer to be reused for a smaller request")
	}
	if len(b) != 50 {
		t.Fatalf("len = %d, want 50", len(b))
	}
}

func TestIntBestFit(t *testing.T) {
	ws := &Workspace{}
	big := make([]int, 1000)
	small := make([]int, 60)
	ws.PutInt(big)
	ws.PutInt(small)
	got := ws.Int(50)
	if cap(got) != cap(small) {
		t.Errorf("best fit picked cap %d, want %d (the smaller buffer)", cap(got), cap(small))
	}
}

func TestIntFilled(t *testing.T) {
	ws := &Workspace{}
	a := ws.Int(10)
	for i := range a {
		a[i] = 7
	}
	ws.PutInt(a)
	b := ws.IntFilled(10, -1)
	for i, v := range b {
		if v != -1 {
			t.Fatalf("b[%d] = %d, want -1", i, v)
		}
	}
}

func TestBoolCleared(t *testing.T) {
	ws := &Workspace{}
	a := ws.Bool(8)
	for i := range a {
		a[i] = true
	}
	ws.PutBool(a)
	b := ws.Bool(8)
	for i, v := range b {
		if v {
			t.Fatalf("b[%d] = true, want false (Bool must clear)", i)
		}
	}
}

func TestNilWorkspace(t *testing.T) {
	var ws *Workspace
	if got := ws.Int(5); len(got) != 5 {
		t.Fatalf("nil ws Int len = %d", len(got))
	}
	if got := ws.IntFilled(3, 9); got[0] != 9 || got[2] != 9 {
		t.Fatal("nil ws IntFilled wrong contents")
	}
	if got := ws.Bool(4); len(got) != 4 || got[0] {
		t.Fatal("nil ws Bool wrong")
	}
	// Puts on a nil workspace are no-ops, not panics.
	ws.PutInt([]int{1})
	ws.PutBool([]bool{true})
}

func TestPutCap(t *testing.T) {
	ws := &Workspace{}
	a := make([]int, 10, 64)
	ws.PutInt(a[:0]) // a zero-length view still contributes its full capacity
	b := ws.Int(60)
	if len(b) != 60 {
		t.Fatalf("len = %d, want 60", len(b))
	}
}

// TestMaxFreeBound: an arena keeps at most maxBlocks blocks per type.
// Foreign pieces past the bound, and fresh requests that find nothing
// free, are left to the garbage collector.
func TestMaxFreeBound(t *testing.T) {
	ws := &Workspace{}
	for i := 0; i < 2*maxBlocks; i++ {
		ws.PutInt(make([]int, 4))
	}
	if len(ws.ints.blocks) > maxBlocks {
		t.Fatalf("arena grew to %d blocks, bound is %d", len(ws.ints.blocks), maxBlocks)
	}
	if b := ws.Bytes(); b != maxBlocks*4*8 {
		t.Fatalf("Bytes = %d, want %d: the dropped pieces must not count", b, maxBlocks*4*8)
	}
	s := ws.Int(5) // fits no block
	if len(ws.ints.blocks) > maxBlocks || ws.Lent() != 0 {
		t.Fatalf("a fresh request past the bound became a block (%d blocks, %d bytes lent)", len(ws.ints.blocks), ws.Lent())
	}
	ws.PutInt(s)
	if len(ws.ints.blocks) > maxBlocks {
		t.Fatalf("its return grew the arena to %d blocks", len(ws.ints.blocks))
	}
}

// TestBytes: Bytes counts the free space of the blocks, a lent piece
// stops counting until it is returned, and Lent counts it meanwhile.
func TestBytes(t *testing.T) {
	var nilWS *Workspace
	if b := nilWS.Bytes(); b != 0 {
		t.Fatalf("nil workspace holds %d bytes", b)
	}
	if b := nilWS.Lent(); b != 0 {
		t.Fatalf("nil workspace lends %d bytes", b)
	}
	ws := &Workspace{}
	ws.PutInt(make([]int, 10, 16))
	ws.PutBool(make([]bool, 100))
	if b := ws.Bytes(); b != 16*8+100 {
		t.Fatalf("Bytes = %d, want %d", b, 16*8+100)
	}
	s := ws.Int(12)
	if b, l := ws.Bytes(), ws.Lent(); b != 100 || l != 16*8 {
		t.Fatalf("with the int buffer lent: Bytes = %d, Lent = %d, want 100 and %d", b, l, 16*8)
	}
	ws.PutInt(s)
	if b, l := ws.Bytes(), ws.Lent(); b != 16*8+100 || l != 0 {
		t.Fatalf("after return: Bytes = %d, Lent = %d, want %d and 0", b, l, 16*8+100)
	}
	// A fresh block counts once it comes back, and a trimmed tail at once.
	big := ws.Int(3 * minSplit)
	if b, l := ws.Bytes(), ws.Lent(); b != 16*8+100 || l != 3*minSplit*8 {
		t.Fatalf("fresh block lent: Bytes = %d, Lent = %d", b, l)
	}
	big = ws.TrimInt(big, minSplit)
	if b, l := ws.Bytes(), ws.Lent(); b != 16*8+100+2*minSplit*8 || l != minSplit*8 {
		t.Fatalf("trimmed: Bytes = %d, Lent = %d", b, l)
	}
	ws.PutInt(big)
	if b, l := ws.Bytes(), ws.Lent(); b != 16*8+100+3*minSplit*8 || l != 0 {
		t.Fatalf("all back: Bytes = %d, Lent = %d", b, l)
	}
}

// extents returns the free extents of ws's int blocks, block by block.
func extents(ws *Workspace) [][]extent {
	var out [][]extent
	for _, b := range ws.ints.blocks {
		out = append(out, slices.Clone(b.free))
	}
	return out
}

func TestSplitPiecesDisjoint(t *testing.T) {
	ws := &Workspace{}
	ws.PutInt(make([]int, 64*minSplit))
	sizes := []int{minSplit, 3 * minSplit, 5000, 2 * minSplit, 7, 10 * minSplit}
	pieces := make([][]int, len(sizes))
	used := 0
	for i, n := range sizes {
		pieces[i] = ws.Int(n)
		used += n
		if len(pieces[i]) != n {
			t.Fatalf("piece %d: len %d, want %d", i, len(pieces[i]), n)
		}
		for j := range pieces[i] {
			pieces[i][j] = i*1_000_000 + j
		}
	}
	if got, want := extents(ws), [][]extent{{{used, 64*minSplit - used}}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("free extents %v, want the one remainder %v", got, want)
	}
	for i, p := range pieces {
		if cap(p) != len(p) {
			t.Errorf("piece %d: cap %d, want exact size %d", i, cap(p), len(p))
		}
		for j, v := range p {
			if v != i*1_000_000+j {
				t.Fatalf("piece %d[%d] = %d: overwritten by another piece", i, j, v)
			}
		}
	}
}

func TestSplitRemainderReused(t *testing.T) {
	ws := &Workspace{}
	big := make([]int, 5*minSplit)
	ws.PutInt(big)
	a := ws.Int(minSplit)
	if &a[0] != &big[0] || cap(a) != minSplit {
		t.Fatalf("first request not split off the front (cap %d)", cap(a))
	}
	b := ws.Int(3 * minSplit)
	if &b[0] != &big[minSplit] {
		t.Fatal("remainder not reused by the next request")
	}
	if got := extents(ws); len(got[0]) != 0 {
		t.Fatalf("free extents %v, want none: a 4k remainder of a 16k extent lends whole", got)
	}
}

func TestNoSplitBelowThresholds(t *testing.T) {
	for _, tc := range []struct{ capacity, n int }{
		{2*minSplit - 2, minSplit - 1}, // remainder below minSplit
		{3 * minSplit, 2 * minSplit},   // request above half the buffer
	} {
		ws := &Workspace{}
		ws.PutInt(make([]int, tc.capacity))
		got := ws.Int(tc.n)
		if cap(got) != tc.capacity || len(ws.ints.blocks[0].free) != 0 {
			t.Errorf("cap %d, n %d: got cap %d with free extents %v, want the buffer lent whole",
				tc.capacity, tc.n, cap(got), extents(ws))
		}
	}
}

// TestPutCoalesces: returned pieces merge with the free extents on both
// sides, so a block cut into pieces serves a whole-block request again.
func TestPutCoalesces(t *testing.T) {
	ws := &Workspace{}
	big := ws.Int(8 * minSplit)
	ws.PutInt(big)
	a, b, c := ws.Int(minSplit), ws.Int(minSplit), ws.Int(minSplit)
	ws.PutInt(a)
	ws.PutInt(c[:0]) // a zero-length view returns the whole piece
	if got, want := extents(ws), [][]extent{{{0, minSplit}, {2 * minSplit, 6 * minSplit}}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("free extents %v, want %v", got, want)
	}
	ws.PutInt(b)
	if got, want := extents(ws), [][]extent{{{0, 8 * minSplit}}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("free extents %v, want the whole block %v", got, want)
	}
	if again := ws.Int(8 * minSplit); &again[0] != &big[0] || len(ws.ints.blocks) != 1 {
		t.Fatal("a whole-block request after coalescing was not served by the block")
	}
}

// TestTrimInt: a lent piece's tail goes back to its block, a foreign
// buffer's tail becomes a block, and a nil workspace copies.
func TestTrimInt(t *testing.T) {
	ws := &Workspace{}
	s := ws.Int(4 * minSplit)
	for i := range s {
		s[i] = i
	}
	tr := ws.TrimInt(s, 100)
	if len(tr) != 100 || cap(tr) != 100 || &tr[0] != &s[0] || tr[99] != 99 {
		t.Fatalf("trimmed piece: len %d cap %d, not the front of the staging buffer", len(tr), cap(tr))
	}
	if next := ws.Int(minSplit); &next[0] != &s[100] {
		t.Fatal("the trimmed tail was not lent to the next request")
	} else {
		ws.PutInt(next)
	}
	ws.PutInt(tr)
	if got, want := extents(ws), [][]extent{{{0, 4 * minSplit}}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("free extents %v, want the whole block %v", got, want)
	}

	foreign := make([]int, 10, 50)
	if got := ws.TrimInt(foreign, 10); cap(got) != 10 || ws.Bytes() != (4*minSplit+40)*8 {
		t.Fatalf("foreign trim: cap %d, Bytes %d", cap(got), ws.Bytes())
	}

	var nilWS *Workspace
	src := []int{1, 2, 3, 4}
	got := nilWS.TrimInt(src[:4:4], 2)
	if !slices.Equal(got, []int{1, 2}) || cap(got) != 2 || &got[0] == &src[0] {
		t.Fatalf("nil trim = %v (cap %d), want a fresh exact-size copy", got, cap(got))
	}
}

func TestSplitPiecesInitialized(t *testing.T) {
	ws := &Workspace{}
	dirtyInts := make([]int, 8*minSplit)
	for i := range dirtyInts {
		dirtyInts[i] = 7
	}
	ws.PutInt(dirtyInts)
	dirtyBools := make([]bool, 8*minSplit)
	for i := range dirtyBools {
		dirtyBools[i] = true
	}
	ws.PutBool(dirtyBools)
	for r := 0; r < 3; r++ {
		for i, v := range ws.IntFilled(minSplit, -1) {
			if v != -1 {
				t.Fatalf("round %d: IntFilled piece [%d] = %d, want -1", r, i, v)
			}
		}
		for i, v := range ws.Bool(minSplit) {
			if v {
				t.Fatalf("round %d: Bool piece [%d] = true, want false", r, i)
			}
		}
	}
}

func TestExactSizeAllocation(t *testing.T) {
	ws := &Workspace{}
	if s := ws.Int(1000); cap(s) != 1000 {
		t.Errorf("Int(1000) cap %d, want 1000", cap(s))
	}
	if s := ws.Bool(1000); cap(s) != 1000 {
		t.Errorf("Bool(1000) cap %d, want 1000", cap(s))
	}
}
