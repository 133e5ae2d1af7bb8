package graph

// FNV-1a parameters, and the powers of the prime that stand in for the
// zero high bytes of a small element (see fnvInts).
const (
	fnvOffset64  = 14695981039346656037
	fnvPrime64   = 1099511628211
	fnvPrime64e6 = 0xdc966432edf1c639 // fnvPrime64^6 mod 2^64
	fnvPrime64e8 = 0x1efac7090aef4a21 // fnvPrime64^8 mod 2^64
)

// Fingerprint returns a 64-bit FNV-1a content hash of the graph: the
// vertex and directed-edge counts followed by every element of Xadj,
// Adjncy, Vwgt and Adjwgt, each mixed in as 8 little-endian bytes. Two
// graphs with identical CSR arrays hash equal; changing any single entry
// of any array changes the hash with overwhelming probability. The value
// depends only on the arrays (not on pointer identity or capacity), is
// stable across runs and platforms, and is suitable as a cache key for
// deterministic partitioning results (see internal/service).
//
// Fingerprint is O(n + m) and allocates nothing.
func (g *Graph) Fingerprint() uint64 {
	h := uint64(fnvOffset64)
	// The array lengths are mixed first so that the element streams of
	// consecutive arrays cannot alias each other across graphs of
	// different shapes.
	h = fnvInts(h, []int{g.NumVertices(), len(g.Adjncy)})
	h = fnvInts(h, g.Xadj)
	h = fnvInts(h, g.Adjncy)
	h = fnvInts(h, g.Vwgt)
	return fnvInts(h, g.Adjwgt)
}

// fnvInts mixes each element of xs into h as 8 little-endian FNV-1a byte
// steps. A zero byte's step is a bare multiply by the prime, so an element
// below 2^8 (2^24) takes its 1 (3) low-byte steps and one multiply by the
// prime raised to the number of zero bytes: the same value modulo 2^64 as
// the 8 steps, in fewer.
func fnvInts(h uint64, xs []int) uint64 {
	for _, v := range xs {
		x := uint64(v)
		switch {
		case x < 1<<8:
			h = (h ^ x) * fnvPrime64e8
		case x < 1<<24:
			h = (h ^ x&0xff) * fnvPrime64
			h = (h ^ x>>8&0xff) * fnvPrime64
			h = (h ^ x>>16) * fnvPrime64e6
		default:
			for i := 0; i < 8; i++ {
				h = (h ^ x&0xff) * fnvPrime64
				x >>= 8
			}
		}
	}
	return h
}
