// The leak and ledger checker: one assertion for every "the call left
// nothing behind" claim the tests make — after a clean sort, a contained
// fault, a cancellation, a server drain or an endpoint shutdown.

package fault

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"
)

// leakWait bounds how long Check waits for exiting goroutines to settle
// back to the baseline: contained failures reap their workers
// synchronously, but the runtime and the net/http connection machinery
// may take a moment to retire them.
const leakWait = 5 * time.Second

// Baseline is the process state a call must return to: its live
// goroutines and, where /proc/self/fd exists, its open file descriptors.
type Baseline struct {
	goroutines int
	fds        int // -1 without procfs: every count is then -1 and passes
}

// TakeBaseline records the current goroutine and open-descriptor counts.
// Take it after any warm-up whose goroutines legitimately persist (a
// workspace's parked pool workers).
func TakeBaseline() Baseline {
	return Baseline{goroutines: runtime.NumGoroutine(), fds: openFDs()}
}

// AuxLedger is a meter of checked-out auxiliary bytes, such as a
// workspace.
type AuxLedger interface{ AuxBytes() uint64 }

// Check returns an error naming every leak since b, or nil: goroutines
// still above the baseline after a bounded wait, open descriptors above
// it, live temp resources on the ledger (CheckResources), bytes still
// checked out of aux (when non-nil), and entries left in spillDir (when
// non-empty).
func (b Baseline) Check(aux AuxLedger, spillDir string) error {
	var errs []error
	g, fds := b.settle()
	if g > b.goroutines {
		errs = append(errs, fmt.Errorf("goroutine leak: %d live, baseline %d", g, b.goroutines))
	}
	if fds > b.fds {
		errs = append(errs, fmt.Errorf("fd leak: %d open, baseline %d", fds, b.fds))
	}
	if err := CheckResources(); err != nil {
		errs = append(errs, err)
	}
	if aux != nil {
		if n := aux.AuxBytes(); n != 0 {
			errs = append(errs, fmt.Errorf("workspace holds %d aux bytes", n))
		}
	}
	if spillDir != "" {
		ents, err := os.ReadDir(spillDir)
		if err != nil {
			errs = append(errs, fmt.Errorf("reading spill dir: %w", err))
		}
		if len(ents) != 0 {
			names := make([]string, len(ents))
			for i, e := range ents {
				names[i] = e.Name()
			}
			errs = append(errs, fmt.Errorf("spill dir holds %d entries: %v", len(ents), names))
		}
	}
	return errors.Join(errs...)
}

// TB is the part of testing.TB that Verify uses.
type TB interface {
	Helper()
	Fatal(args ...any)
}

// Verify fails tb with Check's error, if there is one.
func (b Baseline) Verify(tb TB, aux AuxLedger, spillDir string) {
	tb.Helper()
	if err := b.Check(aux, spillDir); err != nil {
		tb.Fatal(err)
	}
}

// settle polls until the goroutines are back at the baseline or leakWait
// has passed, then counts descriptors once: a connection or file closes
// before the goroutine serving it exits. The poll allocates nothing, so
// it cannot trigger the collection whose finalizers would close a leaked
// *os.File and hide it.
func (b Baseline) settle() (goroutines, fds int) {
	deadline := time.Now().Add(leakWait)
	for runtime.NumGoroutine() > b.goroutines && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine(), openFDs()
}

// openFDs counts the process's open descriptors, or returns -1 where
// there is no /proc/self/fd. Listing the directory opens one descriptor
// of its own, so the count is consistent between a baseline and a check.
// The first listing also starts the runtime's network poller, whose
// descriptors then live for the rest of the process, before it counts.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
