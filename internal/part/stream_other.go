//go:build !amd64 || race

package part

import "unsafe"

// streamLine copies the 64-byte line at src to dst. Without the amd64
// non-temporal stores (and under the race detector, which does not see
// stores made in assembly) it is a plain copy.
func streamLine(dst, src unsafe.Pointer) {
	*(*[64]byte)(dst) = *(*[64]byte)(src)
}

// storeFence is a no-op: plain stores need no fence.
func storeFence() {}
