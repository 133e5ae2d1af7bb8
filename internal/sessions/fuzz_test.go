package sessions

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"mlpart/internal/graph"
	"mlpart/internal/matgen"
)

// FuzzDeltaLog holds decodeRecords to its contract on arbitrary input:
// it never panics, never claims more bytes than it was given, and the
// prefix it does claim re-decodes to exactly the same records — the
// property crash recovery relies on when it truncates a torn tail and
// replays what is left.
func FuzzDeltaLog(f *testing.F) {
	f.Add([]byte{})
	if rec, err := encodeRecord(1, walRecord{Ops: []Op{{Op: OpAdd, U: 0, V: 1, W: 2}}, Tier: TierBoundary, Cut: 3}); err == nil {
		f.Add(rec)
		f.Add(rec[:len(rec)-5])                         // torn tail
		f.Add(append(append([]byte(nil), rec...), 'x')) // trailing garbage
		two, _ := encodeRecord(2, walRecord{Tier: TierVCycle, Cut: 0})
		f.Add(append(append([]byte(nil), rec...), two...))
	}
	f.Add([]byte("MLSD garbage that only starts like a record"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good := decodeRecords(data)
		if good < 0 || good > len(data) {
			t.Fatalf("goodLen %d out of range [0,%d]", good, len(data))
		}
		// Truncating to the claimed-good prefix must be idempotent: the
		// same records come back and the whole prefix is accounted for.
		again, againGood := decodeRecords(data[:good])
		if againGood != good {
			t.Fatalf("re-decode of good prefix claims %d, want %d", againGood, good)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-decode found %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			if recs[i].Seq != again[i].Seq || recs[i].Rec.Tier != again[i].Rec.Tier || recs[i].Rec.Cut != again[i].Rec.Cut {
				t.Fatalf("record %d diverged on re-decode", i)
			}
		}
		// Round-tripping the decoded records re-frames to bytes that
		// decode identically (JSON bytes may differ, content may not).
		var rebuilt bytes.Buffer
		for _, r := range recs {
			buf, err := encodeRecord(r.Seq, r.Rec)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			rebuilt.Write(buf)
		}
		third, thirdGood := decodeRecords(rebuilt.Bytes())
		if thirdGood != rebuilt.Len() || len(third) != len(recs) {
			t.Fatalf("re-encoded log does not decode cleanly: %d/%d records, good %d/%d",
				len(third), len(recs), thirdGood, rebuilt.Len())
		}
	})
}

// referenceSnapshot is the snapshot as built before it reused its arrays:
// fresh arrays, every neighbor list sorted.
func referenceSnapshot(d *dynGraph) *graph.Graph {
	n := len(d.vwgt)
	g := &graph.Graph{
		Xadj:   make([]int, n+1),
		Adjncy: make([]int, 0, d.dir),
		Adjwgt: make([]int, 0, d.dir),
		Vwgt:   append([]int(nil), d.vwgt...),
	}
	for u := 0; u < n; u++ {
		nbrs := make([]int, 0, len(d.adj[u]))
		for v := range d.adj[u] {
			nbrs = append(nbrs, v)
		}
		sort.Ints(nbrs)
		for _, v := range nbrs {
			g.Adjncy = append(g.Adjncy, v)
			g.Adjwgt = append(g.Adjwgt, d.adj[u][v])
		}
		g.Xadj[u+1] = len(g.Adjncy)
	}
	return g
}

// FuzzSnapshotReuse applies random delta batches to a session, some of
// which roll back on an invalid op, and after each one holds the snapshot
// rebuilt into the previous snapshot's arrays to a fresh reference build:
// every array, the entry count and the byte estimate agree, and the
// arrays are the previous ones whenever they had the room.
//
// Each 4-byte group of the input is one op: the first byte picks add,
// remove, vertex reweight or end-of-batch (its bit 2 then appends an op
// on a missing edge, so the batch rolls back); the others give u, v and w.
func FuzzSnapshotReuse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0, 7, 20, 1, 3, 0, 0, 0, 1, 1, 2, 0, 2, 5, 0, 4, 7, 0, 0, 0})
	f.Add([]byte{0, 0, 29, 2, 0, 1, 28, 2, 4, 0, 0, 0, 1, 0, 1, 0, 1, 1, 2, 0, 3, 0, 0, 0})
	g := matgen.Grid2D(5, 6)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := NewManager(Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Create(g, Config{K: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		d := m.sessions[st.ID].dg
		n := d.numVertices()
		var batch []Op
		var prev *graph.Graph
		var prevArr *int // &prev.Adjncy[0] when it was built
		prevCap := 0
		for i := 0; i+4 <= len(data); i += 4 {
			b := data[i : i+4]
			u, v, w := int(b[1])%n, int(b[2])%n, int(b[3])%5+1
			switch b[0] % 4 {
			case 0:
				batch = append(batch, Op{Op: OpAdd, U: u, V: v, W: w})
				continue
			case 1:
				batch = append(batch, Op{Op: OpRemove, U: u, V: v})
				continue
			case 2:
				batch = append(batch, Op{Op: OpVwgt, U: u, W: w})
				continue
			}
			if b[0]&4 != 0 {
				batch = append(batch, Op{Op: OpRemove, U: 0, V: 0})
			}
			if len(batch) == 0 {
				continue
			}
			m.Apply(st.ID, batch) // a rejected batch rolls back
			batch = batch[:0]

			snap := d.snapshot()
			ref := referenceSnapshot(d)
			for _, a := range []struct {
				name     string
				got, ref []int
			}{{"Xadj", snap.Xadj, ref.Xadj}, {"Adjncy", snap.Adjncy, ref.Adjncy}, {"Adjwgt", snap.Adjwgt, ref.Adjwgt}, {"Vwgt", snap.Vwgt, ref.Vwgt}} {
				if !slices.Equal(a.got, a.ref) {
					t.Fatalf("op %d: %s = %v, reference %v", i/4, a.name, a.got, a.ref)
				}
			}
			if d.dir != len(ref.Adjncy) {
				t.Fatalf("op %d: dir = %d, reference has %d entries", i/4, d.dir, len(ref.Adjncy))
			}
			refBytes := int64(n)*bytesPerVertex + int64(d.dir)*bytesPerDirEntry +
				int64(len(ref.Xadj)+len(ref.Adjncy)+len(ref.Adjwgt)+len(ref.Vwgt))*8
			if got := d.bytes(); got != refBytes {
				t.Fatalf("op %d: bytes() = %d, reference %d", i/4, got, refBytes)
			}
			if prev != nil && snap != prev {
				t.Fatalf("op %d: snapshot moved to a new graph header", i/4)
			}
			var arr *int
			if cap(snap.Adjncy) > 0 {
				arr = &snap.Adjncy[:1][0]
			}
			if d.dir > 0 && d.dir <= prevCap && arr != prevArr {
				t.Fatalf("op %d: %d entries fit the previous arrays (capacity %d), but they were reallocated", i/4, d.dir, prevCap)
			}
			prev, prevArr, prevCap = snap, arr, cap(snap.Adjncy)
		}
	})
}
