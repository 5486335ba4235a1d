// Temp-resource accounting: the external-memory counterpart of the
// workspace arena's aux-byte ledger. Code that creates a process-external
// resource a contained panic must not leak — a spill temp file, an open
// descriptor — registers it under a named kind and releases it on cleanup.
// Harnesses then assert the ledger is empty after containment, so "the
// sort failed but its temp files survived" fails tests instead of slowly
// filling /tmp in production. This mirrors the arena-ledger reconciliation
// fix of the resilient-execution PR, extended to resources the Go runtime
// cannot reclaim.

package fault

import (
	"fmt"
	"sort"
	"sync"
)

// resLedger is the process-wide named-resource ledger. A plain mutex-backed
// map: acquisition happens at file-creation rate (a handful per external
// sort), never on a per-tuple path.
var resLedger = struct {
	sync.Mutex
	live map[string]int64
}{live: map[string]int64{}}

// AcquireResource records one live resource of the named kind (e.g.
// "extsort/tempfile"). Pair with ReleaseResource.
func AcquireResource(kind string) {
	resLedger.Lock()
	resLedger.live[kind]++
	resLedger.Unlock()
}

// ReleaseResource records that one resource of the named kind was cleaned
// up. Releasing below zero panics: a double release is an accounting bug
// in the caller, and hiding it would let the ledger vouch for cleanup
// paths that never ran.
func ReleaseResource(kind string) {
	resLedger.Lock()
	defer resLedger.Unlock()
	resLedger.live[kind]--
	if resLedger.live[kind] < 0 {
		panic("fault: ReleaseResource(" + kind + ") below zero")
	}
}

// CheckResources is the cleanup assertion helper for containment tests:
// it returns an error naming every resource kind with a non-zero live
// count, or nil when the ledger is clean. Call it after a contained panic
// (or a chaos run) to fail the test if any temp resource outlived its
// sort.
func CheckResources() error {
	resLedger.Lock()
	defer resLedger.Unlock()
	var leaked []string
	for kind, n := range resLedger.live {
		if n != 0 {
			leaked = append(leaked, fmt.Sprintf("%s=%d", kind, n))
		}
	}
	if len(leaked) == 0 {
		return nil
	}
	sort.Strings(leaked)
	return fmt.Errorf("fault: live temp resources after containment: %v", leaked)
}
