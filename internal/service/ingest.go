package service

import (
	"bytes"
	"encoding/json"
	"strconv"

	"mlpart"
)

// decodeJSON decodes a JSON request body of type R, whose graph member
// (graphOf) is a WireGraph. The body's canonical shape — one object whose
// "graph" member is an object of plain integer arrays — is scanned
// directly: the graph arrays are parsed in one pass, and only the rest of
// the object, with the graph value replaced by null, goes through
// encoding/json. Every other input, valid or not, is decoded by
// encoding/json's Decoder.Decode alone, so the accepted values and error
// messages are the stdlib's by construction; the scanning path only ever
// returns what that call would.
func decodeJSON[R any](data []byte, graphOf func(*R) *mlpart.WireGraph) (req R, err error) {
	if wg, rest, ok := scanGraph(data); ok {
		if json.Unmarshal(rest, &req) == nil {
			*graphOf(&req) = wg
			return req, nil
		}
		req = *new(R) // Unmarshal may have set fields before it failed
	}
	err = json.NewDecoder(bytes.NewReader(data)).Decode(&req)
	return req, err
}

// maxIntDigits is the most decimal digits the scanner accepts in one
// integer: every such value fits an int, so no overflow check is needed.
// Longer literals fall back to encoding/json (and its range error).
const maxIntDigits = strconv.IntSize / 32 * 9

// scanGraph parses data as a top-level object whose "graph" member is in
// canonical form and returns that graph, plus data with the graph value
// replaced by null for encoding/json to decode the remaining members.
// ok=false means the body is outside the canonical shape: escaped or
// non-ASCII top-level keys, keys that case-fold to "graph", a missing or
// duplicate graph, unknown or duplicate graph keys, any number that is not
// a plain integer of at most maxIntDigits digits, or trailing bytes.
// Members other than the graph are only skipped here; encoding/json
// validates them when it decodes rest.
func scanGraph(data []byte) (wg mlpart.WireGraph, rest []byte, ok bool) {
	s := &jsonScanner{data: data}
	if !s.consume('{') {
		return wg, nil, false
	}
	valStart, valEnd := -1, -1
	for {
		key, kok := s.key()
		if !kok {
			return wg, nil, false
		}
		switch {
		case string(key) == "graph":
			if valStart >= 0 {
				return wg, nil, false
			}
			s.ws()
			valStart = s.i
			if wg, ok = s.graph(); !ok {
				return wg, nil, false
			}
			valEnd = s.i
		case bytes.EqualFold(key, []byte("graph")):
			return wg, nil, false
		default:
			if !s.skipValue() {
				return wg, nil, false
			}
		}
		if s.consume(',') {
			continue
		}
		if s.consume('}') {
			break
		}
		return wg, nil, false
	}
	if s.ws(); valStart < 0 || s.i != len(data) {
		return wg, nil, false
	}
	rest = make([]byte, 0, len(data)-(valEnd-valStart)+len("null"))
	rest = append(append(append(rest, data[:valStart]...), "null"...), data[valEnd:]...)
	return wg, rest, true
}

// jsonScanner is a cursor over a JSON body.
type jsonScanner struct {
	data []byte
	i    int
}

// ws skips JSON whitespace.
func (s *jsonScanner) ws() {
	for ; s.i < len(s.data); s.i++ {
		if c := s.data[s.i]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *jsonScanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key scans an object key and the colon after it. Keys with escapes or
// non-ASCII bytes are refused: encoding/json matches keys to fields
// case-insensitively after unescaping, and only plain ASCII keys are
// cheap to classify the same way.
func (s *jsonScanner) key() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for j := s.i; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			key := s.data[s.i:j]
			s.i = j + 1
			return key, s.consume(':')
		case c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// skipValue moves past one value without validating it, stopping at the
// comma or closing brace that ends it.
func (s *jsonScanner) skipValue() bool {
	s.ws()
	depth := 0
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case '"':
			if !s.skipString() {
				return false
			}
			if depth == 0 {
				return true
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return true
			}
			if depth--; depth == 0 {
				s.i++
				return true
			}
		case ',':
			if depth == 0 {
				return true
			}
		}
		s.i++
	}
	return false
}

// skipString moves past the string starting at the cursor.
func (s *jsonScanner) skipString() bool {
	for j := s.i + 1; j < len(s.data); j++ {
		switch s.data[j] {
		case '\\':
			j++
		case '"':
			s.i = j + 1
			return true
		}
	}
	return false
}

// graph parses a WireGraph object.
func (s *jsonScanner) graph() (wg mlpart.WireGraph, ok bool) {
	if !s.consume('{') {
		return wg, false
	}
	if s.consume('}') {
		return wg, true
	}
	var seen [4]bool
	for {
		key, kok := s.key()
		if !kok {
			return wg, false
		}
		var (
			dst  *[]int
			slot int
		)
		switch string(key) {
		case "xadj":
			dst, slot = &wg.Xadj, 0
		case "adjncy":
			dst, slot = &wg.Adjncy, 1
		case "adjwgt":
			dst, slot = &wg.Adjwgt, 2
		case "vwgt":
			dst, slot = &wg.Vwgt, 3
		default:
			return wg, false
		}
		if seen[slot] {
			return wg, false
		}
		seen[slot] = true
		if *dst, ok = s.ints(); !ok {
			return wg, false
		}
		if s.consume(',') {
			continue
		}
		return wg, s.consume('}')
	}
}

// ints parses null or an array of plain integers. The slice is sized
// by counting the elements first, as one more than the commas before the
// next closing bracket, capped by what the bytes left could hold (every
// element takes at least a digit and a separator).
func (s *jsonScanner) ints() ([]int, bool) {
	s.ws()
	if bytes.HasPrefix(s.data[s.i:], []byte("null")) {
		s.i += len("null")
		return nil, true
	}
	if !s.consume('[') {
		return nil, false
	}
	end := bytes.IndexByte(s.data[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	size := bytes.Count(s.data[s.i:s.i+end], []byte{','}) + 1
	xs := make([]int, 0, min(size, (len(s.data)-s.i)/2+1))
	if s.consume(']') {
		return xs, true
	}
	for {
		s.ws()
		v, ok := s.int()
		if !ok {
			return nil, false
		}
		xs = append(xs, v)
		if s.ws(); s.i < len(s.data) {
			switch s.data[s.i] {
			case ',':
				s.i++
				continue
			case ']':
				s.i++
				return xs, true
			}
		}
		return nil, false
	}
}

// int parses an integer literal: an optional minus, then 0 or a digit
// string without leading zeros of at most maxIntDigits digits. A fraction
// or exponent is left unconsumed, so the caller's separator check refuses
// it.
func (s *jsonScanner) int() (int, bool) {
	d, i := s.data, s.i
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	start, v := i, 0
	for ; i < len(d); i++ {
		c := d[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + int(c)
	}
	if nd := i - start; nd == 0 || nd > maxIntDigits || (nd > 1 && d[start] == '0') {
		return 0, false
	}
	s.i = i
	if neg {
		v = -v
	}
	return v, true
}
