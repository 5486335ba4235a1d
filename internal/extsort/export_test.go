package extsort

import "os"

// SetReadbackHook installs fn as the readback hook for the external test
// package, which drives the pipeline through the public SortExternal, and
// returns a function that removes it. fn receives the file about to be
// read back and, for the formation file, spans: the byte ranges
// (offset, length) that hold bucket d, wherever its workers' extents
// landed.
func SetReadbackHook(fn func(f *os.File, spans func(d int) [][2]int64)) (reset func()) {
	readbackHook = fn
	return func() { readbackHook = nil }
}
