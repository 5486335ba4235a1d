//go:build amd64 && !race

package part

import "unsafe"

// streamLine copies the 64-byte line at src to dst with non-temporal
// stores (stream_amd64.s): the write goes around the cache, so the
// destination line is not read for ownership first. The stores are weakly
// ordered; a scatter that issued them calls storeFence before its output
// is read by anyone.
//
//go:noescape
func streamLine(dst, src unsafe.Pointer)

// storeFence orders every earlier streamLine store of this thread before
// its later stores (SFENCE), so a scatter's output is complete once the
// scatter returns.
func storeFence()
