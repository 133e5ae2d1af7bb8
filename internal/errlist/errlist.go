// Package errlist reports every problem a check finds as one error, so a
// caller fixes a request in one round trip instead of one per field.
package errlist

import (
	"errors"
	"strings"
)

// Join joins the non-nil errs with "; ", in the order given. It returns
// nil when every err is nil, and a single error as it is, so its text and
// its type stay what the failing check gave.
func Join(errs ...error) error {
	var msgs []string
	var last error
	for _, err := range errs {
		if err != nil {
			msgs, last = append(msgs, err.Error()), err
		}
	}
	switch len(msgs) {
	case 0:
		return nil
	case 1:
		return last
	}
	return errors.New(strings.Join(msgs, "; "))
}
