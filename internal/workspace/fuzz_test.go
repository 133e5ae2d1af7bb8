package workspace

import (
	"reflect"
	"testing"
)

// modelBlock is the reference model of one block: where its memory starts
// and which of its elements are free.
type modelBlock struct {
	base uintptr
	free []bool
}

// model is the reference arena for one element type. It lends by the same
// rules as the arena, from a per-element free map instead of extents: the
// smallest maximal free run that holds a request (the first of equals, in
// block then offset order), split when the run is at least twice the
// request and leaves at least minSplit over, else lent whole; a fresh
// block when no run holds it. Maximal runs are fully coalesced extents, so
// the arena agrees with the model only if it merges every returned piece.
type model struct {
	elem   uintptr
	blocks []*modelBlock
	free   int
}

// lentPiece is a piece the fuzz target holds. mb is its model block, or
// nil for a foreign buffer; token is the value an int piece is filled with.
type lentPiece struct {
	ints  []int
	bools []bool
	mb    *modelBlock
	off   int
	token int
}

func ptr(s any) uintptr { return reflect.ValueOf(s).Pointer() }

// bestRun returns the model's best-fit run for n: block, offset, length.
func (m *model) bestRun(n int) (*modelBlock, int, int) {
	var best *modelBlock
	bo, bn := 0, 0
	for _, b := range m.blocks {
		for i := 0; i < len(b.free); {
			if !b.free[i] {
				i++
				continue
			}
			j := i
			for j < len(b.free) && b.free[j] {
				j++
			}
			if j-i >= n && (best == nil || j-i < bn) {
				best, bo, bn = b, i, j-i
			}
			i = j
		}
	}
	return best, bo, bn
}

// take checks that the arena lent s, of length n, where the model would,
// and marks it lent. It returns the piece's model block and offset.
func (m *model) take(t *testing.T, s any, n, capacity int) (*modelBlock, int) {
	t.Helper()
	p := ptr(s)
	b, off, run := m.bestRun(n)
	if b == nil {
		if capacity != n {
			t.Fatalf("fresh request %d: cap %d", n, capacity)
		}
		for _, mb := range m.blocks {
			if p >= mb.base && p < mb.base+uintptr(len(mb.free))*m.elem {
				t.Fatalf("request %d: nothing is free for it, but it was lent from a block", n)
			}
		}
		nb := &modelBlock{base: p, free: make([]bool, n)}
		m.blocks = append(m.blocks, nb)
		return nb, 0
	}
	want := run
	if run >= 2*n && run-n >= minSplit {
		want = n
	}
	if p != b.base+uintptr(off)*m.elem || capacity != want {
		t.Fatalf("request %d: lent cap %d at %#x, model has cap %d at %#x (run %d)", n, capacity, p, want, b.base+uintptr(off)*m.elem, run)
	}
	for i := off; i < off+want; i++ {
		b.free[i] = false
	}
	m.free -= want
	return b, off
}

// release marks [off, off+n) of b free, checking it was lent.
func (m *model) release(t *testing.T, b *modelBlock, off, n int) {
	t.Helper()
	for i := off; i < off+n; i++ {
		if b.free[i] {
			t.Fatalf("element %d of a block returned twice", i)
		}
		b.free[i] = true
	}
	m.free += n
}

// adopt adds a foreign buffer of capacity n at p as a free block.
func (m *model) adopt(p uintptr, n int) {
	if n == 0 {
		return
	}
	b := &modelBlock{base: p, free: make([]bool, n)}
	for i := range b.free {
		b.free[i] = true
	}
	m.blocks = append(m.blocks, b)
	m.free += n
}

// fuzzSizes are the request sizes the fuzz ops pick from: around the split
// threshold and its multiples, where lending whole and splitting meet.
var fuzzSizes = [...]int{1, 7, 100, 1000, minSplit - 1, minSplit, minSplit + 1, 2 * minSplit, 3*minSplit + 5, 5 * minSplit}

// FuzzWorkspace runs random sequences of Int, IntFilled, Int(n)[:0] views,
// Bool, PutInt, PutBool, TrimInt and foreign puts and trims against the
// reference model. It checks that lent pieces never overlap (each int
// piece holds a unique token, checked before it goes back), that IntFilled
// and Bool initialize their pieces, that Bytes and Lent equal the model's
// free and lent totals after every op, and that once everything is back a
// request as large as the largest block is served without a new block.
func FuzzWorkspace(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 5, 0, 4, 0, 0, 4, 0, 1, 0, 9, 0})
	f.Add([]byte{2, 9, 0, 6, 3, 0, 0, 4, 0, 4, 0, 0, 3, 8, 0, 5, 0, 0, 7, 6, 0})
	f.Add([]byte{0, 9, 0, 0, 5, 0, 0, 5, 0, 4, 0, 0, 4, 1, 0, 1, 3, 0, 8, 4, 0, 9, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64] // far below maxBlocks blocks, which the model ignores
		}
		ws := &Workspace{}
		mi := &model{elem: 8}
		mb := &model{elem: 1}
		var ints, bools []*lentPiece
		token := 0
		check := func(p *lentPiece) {
			for i, v := range p.ints[:cap(p.ints)] {
				if v != p.token {
					t.Fatalf("piece %d[%d] = %d: overwritten by another piece", p.token, i, v)
				}
			}
		}
		takeInt := func(s []int, n int) {
			token++
			p := &lentPiece{ints: s, token: token}
			p.mb, p.off = mi.take(t, s, n, cap(s))
			for i := range s[:cap(s)] {
				s[:cap(s)][i] = token
			}
			ints = append(ints, p)
		}
		pick := func(list []*lentPiece, sel byte) ([]*lentPiece, *lentPiece) {
			i := int(sel) % len(list)
			p := list[i]
			list[i] = list[len(list)-1]
			return list[:len(list)-1], p
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			n := fuzzSizes[int(ops[1])%len(fuzzSizes)]
			switch ops[0] % 10 {
			case 0:
				takeInt(ws.Int(n), n)
			case 1:
				s := ws.IntFilled(n, -int(ops[2]))
				for i, v := range s {
					if v != -int(ops[2]) {
						t.Fatalf("IntFilled(%d, %d)[%d] = %d", n, -int(ops[2]), i, v)
					}
				}
				takeInt(s, n)
			case 2:
				s := ws.Int(n)[:0]
				if cap(s) < n {
					t.Fatalf("Int(%d)[:0] has cap %d", n, cap(s))
				}
				takeInt(s, n)
			case 3:
				s := ws.Bool(n)
				for i, v := range s {
					if v {
						t.Fatalf("Bool(%d)[%d] = true", n, i)
					}
				}
				p := &lentPiece{bools: s}
				p.mb, p.off = mb.take(t, s, n, cap(s))
				for i := range s[:cap(s)] {
					s[:cap(s)][i] = true
				}
				bools = append(bools, p)
			case 4:
				if len(ints) == 0 {
					continue
				}
				var p *lentPiece
				ints, p = pick(ints, ops[2])
				check(p)
				ws.PutInt(p.ints)
				if p.mb != nil {
					mi.release(t, p.mb, p.off, cap(p.ints))
				} else {
					mi.adopt(ptr(p.ints), cap(p.ints))
				}
			case 5:
				if len(bools) == 0 {
					continue
				}
				var p *lentPiece
				bools, p = pick(bools, ops[2])
				ws.PutBool(p.bools)
				mb.release(t, p.mb, p.off, cap(p.bools))
			case 6:
				if len(ints) == 0 {
					continue
				}
				p := ints[int(ops[2])%len(ints)]
				check(p)
				c := cap(p.ints)
				keep := c * int(ops[1]%5) / 4
				p.ints = ws.TrimInt(p.ints, keep)
				if cap(p.ints) != keep {
					t.Fatalf("TrimInt(cap %d, %d) has cap %d", c, keep, cap(p.ints))
				}
				if p.mb != nil {
					mi.release(t, p.mb, p.off+keep, c-keep)
				} else if c > keep {
					mi.adopt(ptr(p.ints)+uintptr(keep)*8, c-keep)
				}
			case 7:
				// A foreign buffer, sometimes with slack past its length.
				s := make([]int, n, n+int(ops[2]))
				ws.PutInt(s[:n/2])
				mi.adopt(ptr(s), cap(s))
			case 8:
				s := make([]bool, n)
				ws.PutBool(s)
				mb.adopt(ptr(s), n)
			case 9:
				// A foreign buffer trimmed: its tail becomes a block, and
				// the front stays with the caller until it is put.
				token++
				s := make([]int, n+int(ops[2]))
				for i := range s {
					s[i] = token
				}
				ints = append(ints, &lentPiece{ints: ws.TrimInt(s, n), token: token})
				mi.adopt(ptr(s[n:]), len(s)-n)
			}
			if got, want := ws.Bytes(), int64(mi.free)*8+int64(mb.free); got != want {
				t.Fatalf("op %v: Bytes = %d, model holds %d free", ops[:3], got, want)
			}
			size := 0
			for _, b := range mi.blocks {
				size += len(b.free) * 8
			}
			for _, b := range mb.blocks {
				size += len(b.free)
			}
			if got, want := ws.Lent(), int64(size)-ws.Bytes(); got != want {
				t.Fatalf("op %v: Lent = %d, model lends %d", ops[:3], got, want)
			}
		}
		for _, p := range ints {
			check(p)
			ws.PutInt(p.ints)
		}
		for _, p := range bools {
			ws.PutBool(p.bools)
		}
		largest := 0
		for _, b := range ws.ints.blocks {
			largest = max(largest, len(b.buf))
		}
		if largest == 0 {
			return
		}
		blocks := len(ws.ints.blocks)
		if s := ws.Int(largest); len(ws.ints.blocks) != blocks || ws.Lent() != int64(largest)*8 {
			t.Fatalf("with everything back, Int(%d) made a new block (%d -> %d blocks, cap %d)", largest, blocks, len(ws.ints.blocks), cap(s))
		}
	})
}
