package enum

import (
	"reflect"
	"testing"
)

type color int

const (
	red color = iota
	green
	blue
)

var colorNames = Names[color]{red: "red", green: "GREEN", blue: "Blue"}

func TestNames(t *testing.T) {
	for v := red; v <= blue; v++ {
		if !colorNames.Valid(v) {
			t.Errorf("%d not valid", v)
		}
		for _, s := range []string{colorNames.Name(v), " " + colorNames.Name(v) + "\t"} {
			if got, ok := colorNames.Parse(s); !ok || got != v {
				t.Errorf("Parse(%q) = %d, %t; want %d", s, got, ok, v)
			}
		}
	}
	for _, s := range []string{"RED", "green", "bLUE"} {
		if _, ok := colorNames.Parse(s); !ok {
			t.Errorf("Parse(%q) failed: case must not matter", s)
		}
	}
	for _, s := range []string{"", "purple", "re d"} {
		if _, ok := colorNames.Parse(s); ok {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
	for _, v := range []color{-1, 3} {
		if colorNames.Valid(v) {
			t.Errorf("%d valid", v)
		}
	}
	if got := colorNames.Name(7); got != "color(7)" {
		t.Errorf("Name(7) = %q", got)
	}
	if got := colorNames.String(); got != "red, GREEN or Blue" {
		t.Errorf("String() = %q", got)
	}
	list := colorNames.List()
	list[0] = "changed"
	if !reflect.DeepEqual(colorNames.List(), []string{"red", "GREEN", "Blue"}) {
		t.Errorf("List aliases the table: %v", colorNames.List())
	}
	for _, tc := range []struct {
		names Names[color]
		want  string
	}{{nil, ""}, {Names[color]{"a"}, "a"}, {Names[color]{"a", "b"}, "a or b"}} {
		if got := tc.names.String(); got != tc.want {
			t.Errorf("%q.String() = %q, want %q", []string(tc.names), got, tc.want)
		}
	}
}
