package graph

// Binary CSR wire format ("csrb"). This is the zero-copy ingest fast path:
// where the METIS text reader and the JSON wire graph re-tokenize every
// number, DecodeBinary aliases the payload buffer directly into the
// Graph's CSR slices when the encoded word width matches the host, and
// validates everything in one fused pass. The same bytes serve as the HTTP
// request body under Content-Type: application/x-mlpart-csr, as the
// `.csrb` file format of the CLI tools (mmap-able), and as the graphgen
// output format. docs/WIRE.md documents the layout byte by byte.
//
// Layout (all integers little-endian):
//
//	header (40 bytes):
//	  [0:8)   magic "MLPTCSR1"
//	  [8:12)  uint32 format version (BinaryVersion; versioned with the
//	          /v1 wire schema — see docs/WIRE.md)
//	  [12:16) uint32 flags: bit 0 has-vwgt, bit 1 has-adjwgt, bit 2
//	          has-part; bits 8..15 word width in bytes (4 or 8)
//	  [16:24) uint64 n  (vertex count)
//	  [24:32) uint64 m2 (directed edge count, = xadj[n] = len(adjncy))
//	  [32:40) uint64 reserved, must be zero
//	sections, in order, each present only when its flag allows:
//	  xadj (n+1 words), adjncy (m2), adjwgt (m2, flag bit 1),
//	  vwgt (n, bit 0), part (n, bit 2)
//	section framing:
//	  uint64 checksum of the payload bytes (sectionSum), then
//	  count*width payload bytes, then zero padding to an 8-byte boundary
//
// Because the header is 40 bytes and every section is padded to 8, each
// payload begins 8-byte aligned relative to the buffer start — the
// property zero-copy aliasing relies on.

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"unsafe"
)

// BinaryVersion is the version number carried in every csrb header. It
// tracks the /v1 wire schema: like mlpart.SchemaVersion it increments only
// on breaking layout changes, and decoders reject versions they do not
// know rather than guessing.
const BinaryVersion = 1

// binaryMagic identifies a csrb payload; it is ASCII so a `file`-style
// sniff of the first bytes reads sensibly.
const binaryMagic = "MLPTCSR1"

const (
	binFlagVwgt   = 1 << 0
	binFlagAdjw   = 1 << 1
	binFlagPart   = 1 << 2
	binFlagsKnown = binFlagVwgt | binFlagAdjw | binFlagPart

	binHeaderSize = 40
	// hostWidth is the word width of []int on this platform (8 on 64-bit
	// hosts); sections encoded at this width are aliased, others widened.
	hostWidth = strconv.IntSize / 8
)

// sectionSum is the per-section checksum: an xor-rotate-multiply over the
// payload interpreted as little-endian 64-bit words (tail zero-padded). It
// processes 8 bytes per step, so verifying it costs one streaming read of
// the payload — cheap enough to run on every decode, strong enough to
// catch truncation, bit rot and reordered sections.
func sectionSum(b []byte) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for len(b) >= 8 {
		h = bits.RotateLeft64((h^binary.LittleEndian.Uint64(b))*0xFF51AFD7ED558CCD, 31)
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = bits.RotateLeft64((h^binary.LittleEndian.Uint64(tail[:]))*0xFF51AFD7ED558CCD, 31)
	}
	return h
}

// pad8 returns x rounded up to a multiple of 8.
func pad8(x int) int { return (x + 7) &^ 7 }

// EncodeBinary writes g in csrb form at the host word width, the encoding
// DecodeBinary aliases without copying. All four CSR sections are always
// written — including unit weights — precisely so the decoder never has to
// materialize anything.
func EncodeBinary(w io.Writer, g *Graph) error {
	return EncodeBinaryPart(w, g, nil)
}

// EncodeBinaryPart is EncodeBinary with an optional part vector (length n)
// appended as a fifth section; the repartition endpoint reads the incumbent
// partition from it. A nil part omits the section.
func EncodeBinaryPart(w io.Writer, g *Graph, part []int) error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("graph: binary encode: malformed graph (empty Xadj)")
	}
	if part != nil && len(part) != n {
		return fmt.Errorf("graph: binary encode: len(part) = %d, want n = %d", len(part), n)
	}
	flags := uint32(binFlagVwgt|binFlagAdjw) | uint32(hostWidth)<<8
	if part != nil {
		flags |= binFlagPart
	}
	var hdr [binHeaderSize]byte
	copy(hdr[0:8], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], BinaryVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(g.Adjncy)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, sec := range [][]int{g.Xadj, g.Adjncy, g.Adjwgt, g.Vwgt, part} {
		if sec == nil {
			continue
		}
		if err := writeSection(w, sec); err != nil {
			return err
		}
	}
	return nil
}

// writeSection emits one checksummed, padded section at the host width.
func writeSection(w io.Writer, xs []int) error {
	payload := intsAsBytes(xs)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], sectionSum(payload))
	if _, err := w.Write(sum[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	if padding := pad8(len(payload)) - len(payload); padding > 0 {
		var zero [8]byte
		if _, err := w.Write(zero[:padding]); err != nil {
			return err
		}
	}
	return nil
}

// intsAsBytes views an int slice as its in-memory little-endian bytes.
// Only correct on little-endian hosts, which the encoder assumes (amd64,
// arm64); the format itself is defined little-endian either way.
func intsAsBytes(xs []int) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*hostWidth)
}

// DecodeBinary decodes a csrb payload. When the encoded width matches the
// host and data is 8-byte aligned (heap buffers and mmap regions both
// are), the returned Graph's slices alias data directly — zero copies, so
// the caller must keep data alive for the Graph's lifetime and must not
// reuse the buffer. Mismatched widths fall back to a single widening pass
// bounded by the input size. Validation is one fused pass
// (validateIngest), not the multi-pass Validate.
func DecodeBinary(data []byte) (*Graph, error) {
	g, _, err := DecodeBinaryPart(data)
	return g, err
}

// DecodeBinaryPart is DecodeBinary plus the optional part-vector section;
// part is nil when the payload carries none. Part entries are validated
// non-negative; range-checking against k is the caller's job (k is not in
// the format).
func DecodeBinaryPart(data []byte) (*Graph, []int, error) {
	if len(data) < binHeaderSize {
		return nil, nil, fmt.Errorf("graph: binary: short header: %d bytes, want %d", len(data), binHeaderSize)
	}
	if string(data[0:8]) != binaryMagic {
		return nil, nil, fmt.Errorf("graph: binary: bad magic %q", data[0:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != BinaryVersion {
		return nil, nil, fmt.Errorf("graph: binary: unsupported version %d (want %d)", v, BinaryVersion)
	}
	flags := binary.LittleEndian.Uint32(data[12:16])
	width := int(flags >> 8 & 0xff)
	if width != 4 && width != 8 {
		return nil, nil, fmt.Errorf("graph: binary: unsupported word width %d (want 4 or 8)", width)
	}
	if flags&^(uint32(binFlagsKnown)|0xff00) != 0 {
		return nil, nil, fmt.Errorf("graph: binary: unknown flag bits %#x", flags)
	}
	un := binary.LittleEndian.Uint64(data[16:24])
	um2 := binary.LittleEndian.Uint64(data[24:32])
	if rsv := binary.LittleEndian.Uint64(data[32:40]); rsv != 0 {
		return nil, nil, fmt.Errorf("graph: binary: reserved header word is %#x, want 0", rsv)
	}

	// Size arithmetic happens in uint64 against the actual buffer length
	// before anything is allocated: a hostile header cannot force an
	// allocation larger than a constant factor of the bytes it actually
	// shipped, and overflowing counts fail the exact-size check below.
	const maxCount = uint64(1) << 40
	if un >= maxCount || um2 >= maxCount {
		return nil, nil, fmt.Errorf("graph: binary: implausible counts n=%d m2=%d", un, um2)
	}
	n, m2 := int(un), int(um2)
	if m2%2 != 0 {
		return nil, nil, fmt.Errorf("graph: binary: odd directed edge count %d", m2)
	}
	counts := []int{n + 1, m2}
	if flags&binFlagAdjw != 0 {
		counts = append(counts, m2)
	} else {
		counts = append(counts, -1)
	}
	if flags&binFlagVwgt != 0 {
		counts = append(counts, n)
	} else {
		counts = append(counts, -1)
	}
	if flags&binFlagPart != 0 {
		counts = append(counts, n)
	} else {
		counts = append(counts, -1)
	}
	want := uint64(binHeaderSize)
	for _, c := range counts {
		if c < 0 {
			continue
		}
		want += 8 + uint64(pad8(c*width))
	}
	if want != uint64(len(data)) {
		return nil, nil, fmt.Errorf("graph: binary: payload is %d bytes, header describes %d", len(data), want)
	}

	off := binHeaderSize
	sections := make([][]int, len(counts))
	for i, c := range counts {
		if c < 0 {
			continue
		}
		sec, next, err := readSection(data, off, c, width)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: binary: section %d: %w", i, err)
		}
		sections[i], off = sec, next
	}
	xadj, adjncy, adjwgt, vwgt, part := sections[0], sections[1], sections[2], sections[3], sections[4]
	if adjwgt == nil {
		adjwgt = unitWeights(m2)
	}
	if vwgt == nil {
		vwgt = unitWeights(n)
	}
	g := &Graph{Xadj: xadj, Adjncy: adjncy, Adjwgt: adjwgt, Vwgt: vwgt}
	if err := g.validateIngest(); err != nil {
		return nil, nil, err
	}
	if part != nil {
		for i, p := range part {
			if p < 0 {
				return nil, nil, fmt.Errorf("graph: binary: part[%d] = %d, want >= 0", i, p)
			}
		}
	}
	return g, part, nil
}

// readSection verifies one section's checksum and returns its ints —
// aliased from data when the width matches the host and the payload is
// aligned, widened otherwise — plus the offset of the next section.
func readSection(data []byte, off, count, width int) ([]int, int, error) {
	sum := binary.LittleEndian.Uint64(data[off : off+8])
	payload := data[off+8 : off+8+count*width]
	if got := sectionSum(payload); got != sum {
		return nil, 0, fmt.Errorf("checksum mismatch: %#016x on the wire, %#016x computed", sum, got)
	}
	next := off + 8 + pad8(count*width)
	if width == hostWidth && count > 0 &&
		uintptr(unsafe.Pointer(unsafe.SliceData(payload)))%8 == 0 {
		return unsafe.Slice((*int)(unsafe.Pointer(unsafe.SliceData(payload))), count), next, nil
	}
	// Widening (or misaligned) path: one pass, allocation bounded by
	// count, which the exact-size check already tied to len(data).
	out := make([]int, count)
	switch width {
	case 4:
		for i := range out {
			out[i] = int(binary.LittleEndian.Uint32(payload[i*4:]))
		}
	case 8:
		for i := range out {
			v := binary.LittleEndian.Uint64(payload[i*8:])
			if v > uint64(^uint(0)>>1) {
				return nil, 0, fmt.Errorf("word %d overflows host int: %#x", i, v)
			}
			out[i] = int(v)
		}
	}
	return out, next, nil
}

func unitWeights(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// validateIngest is the one validation of FromCSR and the csrb decoder:
// the linear validateFused pass (n bytes of scratch), then, only on arrays
// that fail it, Validate, which allocates a transpose, so that the error
// names the first violation in Validate's words.
func (g *Graph) validateIngest() error {
	err := g.validateFused()
	if err != nil {
		if verr := g.Validate(); verr != nil {
			return verr
		}
	}
	return err
}

// mixKey holds the multipliers of asymMix's pre-mix.
type mixKey struct{ u, v, w uint64 }

// residueKey keys the symmetry residue per process. With public
// multipliers, anyone can compute edge terms offline and search for
// one-way edges whose terms sum to zero — a generalized-birthday merge
// finds sixteen in well under a second — and such a graph passes the
// fused check. Secret multipliers leave nothing to compute offline.
var residueKey = newMixKey()

// newMixKey draws the multipliers from crypto/rand. All three are odd, so
// each term is a bijection of u, v and w alike; u ≡ 1 and v ≡ 3 (mod 4)
// make the multiplier of u−v ≡ 2 (mod 4), so an edge and its reverse mix
// alike only if u ≡ v (mod 2^63), which no vertex pair is.
func newMixKey() mixKey {
	var b [24]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic("graph: no randomness for the symmetry residue key: " + err.Error())
	}
	return mixKey{
		u: binary.LittleEndian.Uint64(b[0:])&^3 | 1,
		v: binary.LittleEndian.Uint64(b[8:]) | 3,
		w: binary.LittleEndian.Uint64(b[16:]) | 1,
	}
}

// asymMix is the direction-sensitive edge hash behind the fused symmetry
// check: a splitmix64-style finalizer over a keyed linear mix of (u, v, w)
// that does NOT commute in u and v. The key sits in the multipliers, not
// in a term added to their sum: an added key leaves every collision of the
// sum itself key-independent, and with weights up to 2^63 such collisions
// are easy — one-way edges (0,1,1) and (3,2,2444032092223129849) swap
// their sums under fixed multipliers and cancel exactly.
func (k mixKey) asymMix(u, v, w int) uint64 {
	x := uint64(u)*k.u + uint64(v)*k.v + uint64(w)*k.w
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// validateFused checks the Graph invariants in one fused pass over the CSR
// arrays — the ingest-path replacement for Validate, whose transpose
// allocates O(m) scratch; it needs only an n-byte mark array. Structure
// (Xadj monotone and consistent, neighbors in range, no self loops,
// positive weights, no neighbor listed twice in one list) is checked
// exactly, in Validate's order and words; edge symmetry is checked
// probabilistically: every stored edge (u,v,w) contributes
// asymMix(u,v,w) − asymMix(v,u,w) under the process's residueKey to a
// running sum, which is zero when every edge appears in both endpoint
// lists with equal weight. An asymmetric graph leaves it zero only by a
// collision, which nobody can aim for without the key.
func (g *Graph) validateFused() error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("graph: Xadj must have length >= 1")
	}
	if g.Xadj[0] != 0 {
		return fmt.Errorf("graph: Xadj[0] = %d, want 0", g.Xadj[0])
	}
	if len(g.Vwgt) != n {
		return fmt.Errorf("graph: len(Vwgt) = %d, want n = %d", len(g.Vwgt), n)
	}
	if len(g.Adjwgt) != len(g.Adjncy) {
		return fmt.Errorf("graph: len(Adjwgt) = %d, want %d", len(g.Adjwgt), len(g.Adjncy))
	}
	if g.Xadj[n] != len(g.Adjncy) {
		return fmt.Errorf("graph: Xadj[n] = %d, want len(Adjncy) = %d", g.Xadj[n], len(g.Adjncy))
	}
	if len(g.Adjncy)%2 != 0 {
		return fmt.Errorf("graph: odd number of directed edges %d", len(g.Adjncy))
	}
	var residue uint64
	key := residueKey
	listed := make([]bool, n) // the neighbors of u seen so far
	for u := 0; u < n; u++ {
		lo, hi := g.Xadj[u], g.Xadj[u+1]
		if hi < lo {
			return fmt.Errorf("graph: Xadj decreasing at %d", u)
		}
		if hi > len(g.Adjncy) {
			return fmt.Errorf("graph: Xadj[%d] = %d exceeds len(Adjncy) = %d", u+1, hi, len(g.Adjncy))
		}
		if g.Vwgt[u] <= 0 {
			return fmt.Errorf("graph: Vwgt[%d] = %d, want > 0", u, g.Vwgt[u])
		}
		for j := lo; j < hi; j++ {
			v, w := g.Adjncy[j], g.Adjwgt[j]
			if v < 0 || v >= n {
				return fmt.Errorf("graph: edge (%d,%d) out of range", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self loop at %d", u)
			}
			if w <= 0 {
				return fmt.Errorf("graph: edge (%d,%d) weight %d, want > 0", u, v, w)
			}
			if listed[v] {
				return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
			}
			listed[v] = true
			residue += key.asymMix(u, v, w) - key.asymMix(v, u, w)
		}
		for _, v := range g.Adjncy[lo:hi] {
			listed[v] = false
		}
	}
	if residue != 0 {
		return fmt.Errorf("graph: adjacency is not symmetric (residue %#016x)", residue)
	}
	return nil
}
