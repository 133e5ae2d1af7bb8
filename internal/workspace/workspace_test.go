package workspace

import "testing"

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

func TestMaxFreeBound(t *testing.T) {
	ws := &Workspace{}
	for i := 0; i < 2*maxFree; i++ {
		ws.PutInt(make([]int, 4))
	}
	if len(ws.ints) > maxFree {
		t.Fatalf("free list grew to %d, bound is %d", len(ws.ints), maxFree)
	}
}

// TestBytes: Bytes counts the free buffers at their full capacity, and a
// lent buffer stops counting until it is returned.
func TestBytes(t *testing.T) {
	var nilWS *Workspace
	if b := nilWS.Bytes(); b != 0 {
		t.Fatalf("nil workspace holds %d bytes", b)
	}
	ws := &Workspace{}
	ws.PutInt(make([]int, 10, 16))
	ws.PutBool(make([]bool, 100))
	if b := ws.Bytes(); b != 16*8+100 {
		t.Fatalf("Bytes = %d, want %d", b, 16*8+100)
	}
	s := ws.Int(12)
	if b := ws.Bytes(); b != 100 {
		t.Fatalf("Bytes with the int buffer lent = %d, want 100", b)
	}
	ws.PutInt(s)
	if b := ws.Bytes(); b != 16*8+100 {
		t.Fatalf("Bytes after return = %d, want %d", b, 16*8+100)
	}
}

func TestSplitPiecesDisjoint(t *testing.T) {
	ws := &Workspace{}
	ws.PutInt(make([]int, 64*minSplit))
	sizes := []int{minSplit, 3 * minSplit, 5000, 2 * minSplit, 7, 10 * minSplit}
	pieces := make([][]int, len(sizes))
	for i, n := range sizes {
		pieces[i] = ws.Int(n)
		if len(pieces[i]) != n {
			t.Fatalf("piece %d: len %d, want %d", i, len(pieces[i]), n)
		}
		for j := range pieces[i] {
			pieces[i][j] = i*1_000_000 + j
		}
	}
	if len(ws.ints) != 1 {
		t.Fatalf("free list holds %d buffers, want the one remainder", len(ws.ints))
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
	if len(ws.ints) != 0 {
		t.Fatalf("free list holds %d buffers, want 0: a 4k remainder of a 16k buffer lends whole", len(ws.ints))
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
		if cap(got) != tc.capacity || len(ws.ints) != 0 {
			t.Errorf("cap %d, n %d: got cap %d with %d free, want the buffer lent whole",
				tc.capacity, tc.n, cap(got), len(ws.ints))
		}
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
