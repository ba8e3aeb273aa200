package engine

import "fmt"

// ValidationError marks a request the client got wrong — an unknown
// op, a bad category name, a malformed session spec. It exists so the
// daemon can map client mistakes to 400 while every other engine
// failure (a broken build, a faulted simulation) surfaces as the 500
// it really is, instead of masquerading as the client's fault.
type ValidationError struct {
	Msg string
}

func (e *ValidationError) Error() string { return e.Msg }

// errValidation builds a *ValidationError fmt.Errorf-style.
func errValidation(format string, args ...any) error {
	return &ValidationError{Msg: fmt.Sprintf(format, args...)}
}
