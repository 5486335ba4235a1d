package partsort

import "fmt"

// ArgError reports an invalid argument to an entry point: a malformed
// option value or mismatched column lengths. The error-returning calls
// return it; the panicking wrappers panic with it, so both surfaces share
// one validator and one error taxonomy.
type ArgError struct {
	Func   string // entry point, e.g. "SortResilientCtx"
	Field  string // offending parameter or option field, e.g. "RadixBits"
	Reason string // the violated constraint
}

// Error implements error in the "partsort: Func: invalid Field: Reason"
// form.
func (e *ArgError) Error() string {
	return "partsort: " + e.Func + ": invalid " + e.Field + ": " + e.Reason
}

// ResourceError reports a sort that could not acquire auxiliary memory
// within its budget: workspace scratch acquisition crossed
// SortOptions.MaxAuxBytes (or the default budget of half the machine's
// available memory). The run was contained like any worker failure — all
// goroutines drained, the input restored to a permutation — but unlike an
// *InternalError, retrying the same plan is pointless: the resilient
// supervisor classifies it as a degradation trigger and steers the next
// attempt onto the in-place paths (see RetryPolicy).
type ResourceError struct {
	Op     string // the entry point whose acquisition failed
	Need   int64  // bytes the failing acquisition asked for
	InUse  int64  // auxiliary bytes already checked out when it failed
	Budget int64  // the budget in force
}

// Error implements error, naming the operation and the budget arithmetic.
func (e *ResourceError) Error() string {
	return fmt.Sprintf("partsort: %s: aux memory budget exceeded: need %d B with %d B in use, budget %d B",
		e.Op, e.Need, e.InUse, e.Budget)
}

// SpillError reports an external-sort I/O failure: creating, writing, or
// reading back the spill files, crossing the disk budget (unwraps to
// ErrSpillBudget), or a sealed run failing its checksum on read-back
// (unwraps to ErrSpillCorrupt). The run was contained: the input arrays
// hold a permutation of the input and every temp file was removed.
type SpillError struct {
	Op   string // the entry point, e.g. "SortExternal"
	Path string // the spill file or directory involved
	Err  error  // the underlying failure
}

// Error implements error, naming the operation and the spill path.
func (e *SpillError) Error() string {
	return fmt.Sprintf("partsort: %s: spill %s: %v", e.Op, e.Path, e.Err)
}

// Unwrap exposes the underlying failure for errors.Is/As.
func (e *SpillError) Unwrap() error { return e.Err }

// InternalError reports a worker panic that the hardened execution layer
// contained: instead of crashing the process, the panic was recovered, its
// sibling workers were cancelled and drained, the input arrays were
// restored to a permutation of the input where the interruption point
// guarantees it, and the failure surfaced here as an error.
type InternalError struct {
	Op    string // the entry point that contained the panic
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack, captured at the site
}

// Error implements error, naming the containing operation and the panic
// value.
func (e *InternalError) Error() string {
	return fmt.Sprintf("partsort: %s: contained worker panic: %v", e.Op, e.Value)
}

// Unwrap exposes the panic value for errors.Is/As when it was an error.
func (e *InternalError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}
