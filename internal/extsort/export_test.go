package extsort

import "os"

// SetReadbackHook installs fn as the readback hook for the external test
// package, which drives the pipeline through Run at explicit shapes
// (runShape), and returns a function that removes it. fn receives the spill file before
// delivery reads it back: with d = -1 when delivery starts, and with the
// bucket d before each bucket larger than one segment is read. spans gives
// the byte ranges (offset, length) that hold a bucket, wherever its
// workers' extents landed.
func SetReadbackHook(fn func(f *os.File, d int, spans func(d int) [][2]int64)) (reset func()) {
	readbackHook = fn
	return func() { readbackHook = nil }
}

// FlipByte flips the byte at(size) of the bucket stored in spans (size is
// the bucket's byte count), mapping that offset through the spans.
var FlipByte = flipAt
