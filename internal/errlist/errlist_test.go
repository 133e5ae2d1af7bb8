package errlist

import (
	"errors"
	"io"
	"testing"
)

func TestJoin(t *testing.T) {
	if err := Join(); err != nil {
		t.Errorf("Join() = %v, want nil", err)
	}
	if err := Join(nil, nil); err != nil {
		t.Errorf("Join(nil, nil) = %v, want nil", err)
	}
	if err := Join(nil, io.EOF, nil); err != io.EOF {
		t.Errorf("a single error = %v, want io.EOF itself", err)
	}
	err := Join(errors.New("a"), nil, errors.New("b"), errors.New("c"))
	if got, want := err.Error(), "a; b; c"; got != want {
		t.Errorf("Join = %q, want %q", got, want)
	}
}
