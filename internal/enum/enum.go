// Package enum holds the name table behind each of the partitioner's
// algorithm enums. One table per enum yields its String, Parse and Valid
// and the name list every discovery surface renders (CLI help,
// /v1/capabilities, error messages), so each name is written once.
package enum

import (
	"fmt"
	"strings"
)

// Names is the name table of an int-valued enum T whose values are
// 0..len-1: Names[v] is value v's canonical name. Declare it with keyed
// elements, e.g. Names[Policy]{GR: "GR", KLR: "KLR"}, so each name sits
// next to its constant.
type Names[T ~int] []string

// Valid reports whether v is one of the table's values.
func (n Names[T]) Valid(v T) bool { return v >= 0 && int(v) < len(n) }

// Name returns v's canonical name, or "T(v)" for a value outside the
// table.
func (n Names[T]) Name(v T) string {
	if n.Valid(v) {
		return n[v]
	}
	typ := fmt.Sprintf("%T", v)
	return fmt.Sprintf("%s(%d)", typ[strings.LastIndexByte(typ, '.')+1:], int(v))
}

// Parse returns the value named s. Every surface that accepts a name —
// CLI flags, JSON options, query parameters — parses through here, so
// surrounding whitespace and case are forgiven once (" hem " is HEM).
func (n Names[T]) Parse(s string) (T, bool) {
	s = strings.TrimSpace(s)
	for v, name := range n {
		if strings.EqualFold(s, name) {
			return T(v), true
		}
	}
	return 0, false
}

// List returns a copy of the names in value order.
func (n Names[T]) List() []string { return append([]string(nil), n...) }

// String renders the names for an error message: "A, B or C".
func (n Names[T]) String() string {
	if len(n) < 2 {
		return strings.Join(n, "")
	}
	return strings.Join(n[:len(n)-1], ", ") + " or " + n[len(n)-1]
}
