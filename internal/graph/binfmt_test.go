package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// testGraph builds a small weighted graph exercising every section.
func testGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(6)
	b.AddWeightedEdge(0, 1, 3)
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(2, 3, 2)
	b.AddWeightedEdge(3, 4, 1)
	b.AddWeightedEdge(4, 5, 5)
	b.AddWeightedEdge(5, 0, 1)
	b.AddWeightedEdge(0, 3, 2)
	b.SetVertexWeight(2, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBinaryRoundTrip(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Fatalf("fingerprint changed across binary round trip: %x vs %x",
			g2.Fingerprint(), g.Fingerprint())
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("decoded graph fails full Validate: %v", err)
	}
}

func TestBinaryZeroCopyAliases(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if hostWidth != 8 || uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 != 0 {
		t.Skip("zero-copy aliasing needs a 64-bit host and an aligned buffer")
	}
	g2, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit of the xadj payload in the source buffer; a zero-copy
	// decode must see the change through the aliased slice.
	data[binHeaderSize+8] ^= 0x01 // first word of the xadj payload
	if g2.Xadj[0] == 0 {
		t.Fatalf("expected aliasing: Xadj[0] still 0 after buffer mutation")
	}
	data[binHeaderSize+8] ^= 0x01
	if g2.Xadj[0] != 0 {
		t.Fatalf("buffer restore did not restore the graph")
	}
}

func TestBinaryPartSection(t *testing.T) {
	g := testGraph(t)
	part := []int{0, 1, 1, 0, 2, 2}
	var buf bytes.Buffer
	if err := EncodeBinaryPart(&buf, g, part); err != nil {
		t.Fatal(err)
	}
	g2, part2, err := DecodeBinaryPart(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Fatal("fingerprint changed with part section present")
	}
	if len(part2) != len(part) {
		t.Fatalf("part length %d, want %d", len(part2), len(part))
	}
	for i := range part {
		if part2[i] != part[i] {
			t.Fatalf("part[%d] = %d, want %d", i, part2[i], part[i])
		}
	}
	// Plain DecodeBinary must still accept the payload and drop the part.
	if _, err := DecodeBinary(buf.Bytes()); err != nil {
		t.Fatalf("DecodeBinary on part-carrying payload: %v", err)
	}
}

func TestBinaryWidth4Widening(t *testing.T) {
	g := testGraph(t)
	data := encodeWidth4(t, g, nil)
	g2, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Fatal("fingerprint changed across width-4 round trip")
	}
}

// encodeWidth4 hand-rolls a width-4 encoding (the encoder always writes
// host width) so the widening decode path is covered.
func encodeWidth4(t testing.TB, g *Graph, part []int) []byte {
	t.Helper()
	var buf bytes.Buffer
	flags := uint32(binFlagVwgt|binFlagAdjw) | 4<<8
	if part != nil {
		flags |= binFlagPart
	}
	var hdr [binHeaderSize]byte
	copy(hdr[0:8], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], BinaryVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(g.Adjncy)))
	buf.Write(hdr[:])
	sec := func(xs []int) {
		payload := make([]byte, len(xs)*4)
		for i, x := range xs {
			binary.LittleEndian.PutUint32(payload[i*4:], uint32(x))
		}
		var sum [8]byte
		binary.LittleEndian.PutUint64(sum[:], sectionSum(payload))
		buf.Write(sum[:])
		buf.Write(payload)
		if pad := pad8(len(payload)) - len(payload); pad > 0 {
			buf.Write(make([]byte, pad))
		}
	}
	sec(g.Xadj)
	sec(g.Adjncy)
	sec(g.Adjwgt)
	sec(g.Vwgt)
	if part != nil {
		sec(part)
	}
	return buf.Bytes()
}

func TestBinaryRejects(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"truncated header", func(b []byte) []byte { return b[:20] }, "short header"},
		{"truncated section", func(b []byte) []byte { return b[:len(b)-8] }, "describes"},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0) }, "describes"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "magic"},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 99)
			return b
		}, "version"},
		{"bad width", func(b []byte) []byte {
			flags := binary.LittleEndian.Uint32(b[12:16])
			binary.LittleEndian.PutUint32(b[12:16], flags&^0xff00|3<<8)
			return b
		}, "width"},
		{"unknown flag", func(b []byte) []byte {
			flags := binary.LittleEndian.Uint32(b[12:16])
			binary.LittleEndian.PutUint32(b[12:16], flags|1<<5)
			return b
		}, "flag"},
		{"reserved nonzero", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:40], 7)
			return b
		}, "reserved"},
		{"overflowing n", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:24], 1<<60)
			return b
		}, "implausible"},
		{"overflowing m2", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:32], 1<<60)
			return b
		}, "implausible"},
		{"checksum mismatch", func(b []byte) []byte {
			b[binHeaderSize+8] ^= 0xff // xadj payload
			return b
		}, "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			_, err := DecodeBinary(b)
			if err == nil {
				t.Fatalf("decode accepted corrupted payload")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestBinaryRejectsAsymmetric(t *testing.T) {
	// A structurally plausible but asymmetric graph: edge 0->1 present,
	// 1->0 missing (vertex 1 lists vertex 2 instead).
	g := &Graph{
		Xadj:   []int{0, 1, 2, 3, 4},
		Adjncy: []int{1, 2, 1, 2},
		Adjwgt: []int{1, 1, 1, 1},
		Vwgt:   []int{1, 1, 1, 1},
	}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	_, err := DecodeBinary(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "symmetric") {
		t.Fatalf("asymmetric graph not rejected: %v", err)
	}
}

func TestBinaryFusedMatchesValidate(t *testing.T) {
	// Every graph the fused validator accepts must also pass the full
	// multi-pass Validate, across the workloads the METIS reader accepts.
	for _, in := range []string{
		"3 2\n2\n1 3\n2\n",
		"2 1 001\n2 5\n1 5\n",
		"3 2 010\n4 2\n1 1 3\n9 2\n",
		"1 0\n\n",
	} {
		g, err := Read(strings.NewReader(in))
		if err != nil {
			t.Fatalf("seed graph %q: %v", in, err)
		}
		if err := g.validateFused(); err != nil {
			t.Errorf("fused validation rejects a Validate-accepted graph %q: %v", in, err)
		}
	}
}

func TestOpenBinaryFile(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.csrb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeBinary(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g2, closer, err := OpenBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Fatal("fingerprint changed through file round trip")
	}
	// Mutating vertex weights must hit private pages, never the file
	// (MAP_PRIVATE on the mmap path, a heap buffer on the fallback).
	g2.Vwgt[0] = 99
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	g3, closer3, err := OpenBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer3.Close()
	if g3.Vwgt[0] == 99 {
		t.Fatal("vertex weight mutation leaked into the backing file")
	}
}

// TestFromCSRMatchesBinaryVerdict checks that Validate, FromCSR (the path
// of JSON bodies) and the csrb decoder give one verdict on the same arrays.
// A list that names one neighbour twice fails all three, whether or not
// the weights pair up across the two directions, and a failure reads the
// same, in Validate's words, on all three.
func TestFromCSRMatchesBinaryVerdict(t *testing.T) {
	for _, g := range []*Graph{
		path(6),
		{Xadj: []int{0, 2, 4}, Adjncy: []int{1, 1, 0, 0}, Adjwgt: []int{1, 2, 1, 2}, Vwgt: []int{1, 1}},
		{Xadj: []int{0, 2, 3, 5, 6}, Adjncy: []int{1, 1, 0, 3, 3, 2}, Adjwgt: []int{1, 1, 1, 1, 1, 1}, Vwgt: []int{1, 1, 1, 1}},
		{Xadj: []int{0, 1, 2}, Adjncy: []int{1, 0}, Adjwgt: []int{2, 3}, Vwgt: []int{1, 1}},
	} {
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		valErr := g.Validate()
		_, binErr := DecodeBinary(buf.Bytes())
		_, csrErr := FromCSR(g.Xadj, g.Adjncy, g.Adjwgt, g.Vwgt)
		if errText(binErr) != errText(valErr) || errText(csrErr) != errText(valErr) {
			t.Errorf("%v: Validate says %v, csrb says %v, FromCSR says %v", g.Adjncy, valErr, binErr, csrErr)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestResidueKeyDefeatsSwappedSums: under fixed multipliers, the linear
// mixes of one-way edges (0,1,1) and (3,2,2444032092223129849) are each
// other's reverse, so their residue terms cancel for any key added to the
// mix. Keyed multipliers break the swap, and the graph is rejected with
// Validate's text by both ingest paths.
func TestResidueKeyDefeatsSwappedSums(t *testing.T) {
	unkeyed := mixKey{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9}
	g := &Graph{
		Xadj:   []int{0, 1, 1, 1, 2},
		Adjncy: []int{1, 2},
		Adjwgt: []int{1, 2444032092223129849},
		Vwgt:   []int{1, 1, 1, 1},
	}
	if r := unkeyed.asymMix(0, 1, 1) - unkeyed.asymMix(1, 0, 1) + unkeyed.asymMix(3, 2, g.Adjwgt[1]) - unkeyed.asymMix(2, 3, g.Adjwgt[1]); r != 0 {
		t.Fatalf("unkeyed residue %#x, want 0", r)
	}
	const want = "graph: asymmetric edge (0,1): 1 vs 0"
	if _, err := FromCSR(g.Xadj, g.Adjncy, g.Adjwgt, g.Vwgt); errText(err) != want {
		t.Errorf("FromCSR = %v, want %q", err, want)
	}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinary(buf.Bytes()); errText(err) != want {
		t.Errorf("DecodeBinary = %v, want %q", err, want)
	}
	if k := residueKey; k.u%4 != 1 || k.v%4 != 3 || k.w%2 != 1 {
		t.Errorf("residueKey %#x: want u ≡ 1, v ≡ 3 (mod 4) and w odd", k)
	}
}
