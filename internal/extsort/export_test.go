package extsort

import "os"

// SetReadbackHook installs fn as the readback hook for the external test
// package, which drives the pipeline through the public SortExternal, and
// returns a function that removes it.
func SetReadbackHook(fn func(f *os.File)) (reset func()) {
	readbackHook = fn
	return func() { readbackHook = nil }
}
