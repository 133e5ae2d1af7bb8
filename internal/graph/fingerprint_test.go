package graph

import (
	"math"
	"math/rand"
	"testing"
)

// fingerprintFixture is the pinned FNV-1a fingerprint of path(5) with unit
// weights. The value is part of the cache-key contract of
// internal/service: it must never change across runs, platforms, or
// refactors of the hash. TestFingerprintPinnedConstant fails loudly if it
// does (any intentional change of the hash must bump the service cache's
// notion of a key, i.e. is a breaking change).
const fingerprintFixture = 0x01db81f1df45ce85

func TestFingerprintPinnedConstant(t *testing.T) {
	g := path(5)
	if got := g.Fingerprint(); got != fingerprintFixture {
		t.Errorf("Fingerprint(path(5)) = %#x, want %#x", got, fingerprintFixture)
	}
	// Stable across repeated calls on the same graph.
	if a, b := g.Fingerprint(), g.Fingerprint(); a != b {
		t.Errorf("Fingerprint not stable: %#x vs %#x", a, b)
	}
}

func TestFingerprintEqualGraphs(t *testing.T) {
	a := grid(7, 9)
	b := grid(7, 9)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("structurally equal graphs hash differently: %#x vs %#x",
			a.Fingerprint(), b.Fingerprint())
	}
	c := a.Clone()
	if a.Fingerprint() != c.Fingerprint() {
		t.Errorf("clone hashes differently: %#x vs %#x", a.Fingerprint(), c.Fingerprint())
	}
}

// TestFingerprintPerturbations flips one entry of each CSR array in turn
// and checks that every perturbation moves the hash.
func TestFingerprintPerturbations(t *testing.T) {
	base := randomGraph(64, 256, 8, 42)
	want := base.Fingerprint()

	perturb := []struct {
		name string
		mut  func(g *Graph)
	}{
		{"vwgt", func(g *Graph) { g.Vwgt[13]++ }},
		{"adjwgt", func(g *Graph) { g.Adjwgt[0]++ }},
		{"adjncy", func(g *Graph) { g.Adjncy[1]++ }},
		{"xadj", func(g *Graph) { g.Xadj[5]++ }},
	}
	for _, p := range perturb {
		g := base.Clone()
		p.mut(g)
		if got := g.Fingerprint(); got == want {
			t.Errorf("perturbing %s left fingerprint unchanged (%#x)", p.name, got)
		}
	}
}

// TestFingerprintShapeConfusion checks that graphs whose concatenated
// array streams coincide still hash apart because the lengths are mixed
// in first.
func TestFingerprintShapeConfusion(t *testing.T) {
	a := path(4)
	b := path(5)
	if a.Fingerprint() == b.Fingerprint() {
		t.Errorf("path(4) and path(5) collide: %#x", a.Fingerprint())
	}
	c := cycle(6)
	d := grid(2, 3)
	if c.Fingerprint() == d.Fingerprint() {
		t.Errorf("cycle(6) and grid(2,3) collide: %#x", c.Fingerprint())
	}
}

// fingerprintBytewise is the reference definition of Fingerprint: every
// element stepped through FNV-1a one little-endian byte at a time, all 8
// of them.
func fingerprintBytewise(g *Graph) uint64 {
	h := uint64(fnvOffset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= fnvPrime64
			x >>= 8
		}
	}
	mix(uint64(g.NumVertices()))
	mix(uint64(len(g.Adjncy)))
	for _, arr := range [][]int{g.Xadj, g.Adjncy, g.Vwgt, g.Adjwgt} {
		for _, x := range arr {
			mix(uint64(x))
		}
	}
	return h
}

// fingerprintTable is a set of graphs with their fingerprints, pinned from
// the byte-wise implementation. The arrays of the last two are not valid
// graphs — Fingerprint reads them as they are — so they can hold negative
// elements and elements at and beyond each width the fast path takes
// apart: 2^8, 2^24 and 2^32.
var fingerprintTable = []struct {
	name string
	g    *Graph
	want uint64
}{
	{"path5", path(5), fingerprintFixture},
	{"grid7x9", grid(7, 9), 0x07ca3f628c573e4f},
	{"random64", randomGraph(64, 256, 8, 42), 0xca4549ea29b8c29e},
	{"random300-wide-weights", randomGraph(300, 2000, 1<<20, 7), 0x159f100a34488fde},
	{"empty", &Graph{Xadj: []int{0}}, 0x81d23fd7003c2305},
	{"negative-and-wide", &Graph{
		Xadj:   []int{0, 2, 4},
		Adjncy: []int{1, -1, 0, 1 << 24},
		Adjwgt: []int{1<<24 - 1, 255, 256, 1 << 40},
		Vwgt:   []int{-5, math.MaxInt},
	}, 0x3f4b4fa198d3dd39},
	{"width-boundaries", &Graph{
		Xadj:   []int{0, 0},
		Adjncy: []int{0, 255, 256, 65535, 65536, 1<<24 - 1, 1 << 24, math.MaxInt, math.MinInt},
		Vwgt:   []int{1<<32 + 1},
	}, 0x5a0910ba6908f00c},
}

// TestFingerprintPinnedTable checks Fingerprint and the byte-wise
// reference against the pinned values: session ids and cache keys are
// fingerprints, so no rewrite of the hash may move one.
func TestFingerprintPinnedTable(t *testing.T) {
	for _, tc := range fingerprintTable {
		if got := tc.g.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint = %#016x, want %#016x", tc.name, got, tc.want)
		}
		if got := fingerprintBytewise(tc.g); got != tc.want {
			t.Errorf("%s: byte-wise reference = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintMatchesBytewise compares Fingerprint with the byte-wise
// reference on arrays of random elements drawn from every width, sign
// included.
func TestFingerprintMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		arr := make([]int, rng.Intn(40))
		for i := range arr {
			arr[i] = int(rng.Uint64() >> rng.Intn(64))
			if rng.Intn(4) == 0 {
				arr[i] = -arr[i]
			}
		}
		g := &Graph{Xadj: []int{0}, Adjncy: arr, Adjwgt: arr[:len(arr)/2], Vwgt: arr[len(arr)/3:]}
		if got, want := g.Fingerprint(), fingerprintBytewise(g); got != want {
			t.Fatalf("trial %d: Fingerprint = %#016x, byte-wise %#016x", trial, got, want)
		}
	}
	if a := testing.AllocsPerRun(10, func() { _ = fingerprintTable[2].g.Fingerprint() }); a != 0 {
		t.Errorf("Fingerprint allocates %v times per call", a)
	}
}
