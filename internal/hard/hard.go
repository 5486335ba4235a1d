// Package hard is the hardened-execution layer shared by the public API,
// both goroutine fan-out mechanisms (the persistent worker pool of
// internal/ws and the region-level plain-goroutine fan-outs), and the
// partitioning kernels:
//
//   - PanicError captures a worker panic together with the panicking
//     goroutine's stack, so a panic recovered on a different goroutine
//     (the pool's Run caller, a region fan-out's coordinator) stays
//     debuggable;
//   - Ctl is the per-run control block behind cooperative cancellation:
//     a context's done channel plus a sibling-stop flag, polled at
//     checkpoints between passes and every few tens of thousands of
//     tuples inside the parallel histogram/scatter loops, so both
//     context cancellation and a sibling worker's failure have bounded
//     latency;
//   - Group is the contained replacement for the bare `go func` + wait
//     group region fan-out: it recovers worker panics, stops siblings,
//     waits for every goroutine (no leaks), and re-raises exactly one
//     failure on the caller.
//
// Cancellation rides the same unwinding mechanism as containment: a
// checkpoint that observes cancellation panics with a private bail value,
// and the top-level recovery in the public sort calls maps it back
// to the context's error. Kernels therefore need no error plumbing — only
// cheap nil-safe Checkpoint calls at safe points.
//
// Everything here is nil-safe and zero-cost when disabled: a nil *Ctl
// checkpoint is one pointer comparison, so kernels run outside a hardened
// call pay nothing.
package hard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a worker panic captured with the panicking goroutine's
// stack. Fan-out mechanisms wrap panics exactly once (NewPanic is
// idempotent), so the stack always points at the original panic site even
// after crossing several goroutine and re-panic boundaries.
type PanicError struct {
	Val   any    // the original panic value
	Stack []byte // stack of the panicking goroutine, captured at recover
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Val)
}

// Unwrap exposes a wrapped error panic value to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Val.(error); ok {
		return err
	}
	return nil
}

// NewPanic wraps a recovered panic value with the current goroutine's
// stack. Call it inside the recovering deferred function, on the
// panicking goroutine, so the stack still contains the panic site.
// Already-wrapped values and cancellation bails pass through unchanged.
func NewPanic(val any) any {
	switch val.(type) {
	case *PanicError, bail:
		return val
	}
	return &PanicError{Val: val, Stack: debug.Stack()}
}

// ErrSiblingStop is the cancellation cause when a checkpoint fires because
// a sibling worker failed (rather than because a context was canceled).
// It never surfaces from the public API: the sibling's PanicError wins.
var ErrSiblingStop = errors.New("hard: stopped after sibling worker failure")

// bail is the private panic value of a cancellation checkpoint. It unwinds
// through kernels and fan-outs (each restoring its own invariants) up to
// the top-level recovery, which maps it back to an error.
type bail struct{ err error }

// Bail unwinds the calling goroutine with a cancellation bail carrying
// err. Fan-out recoveries treat bails as cancellations, not failures.
func Bail(err error) {
	panic(NewBail(err))
}

// NewBail returns the panic value Bail raises, for a recovering handler
// that re-raises a cancellation with more context in its cause.
func NewBail(err error) any {
	if err == nil {
		err = ErrSiblingStop
	}
	return bail{err}
}

// BailCause reports whether a recovered panic value is a cancellation
// bail, and if so its cause.
func BailCause(val any) (error, bool) {
	if b, ok := val.(bail); ok {
		return b.err, true
	}
	return nil, false
}

// ckptStride is how many Checkpoint calls elapse between polls of the
// context's done channel. The sibling-stop flag is checked every call (one
// atomic load); the channel poll is amortized because recursion-heavy
// callers (MSB's per-segment recursion) checkpoint far more often than the
// chunk-granular loops.
const ckptStride = 64

// CkptTuples is the checkpoint interval of the chunked parallel histogram
// and scatter loops, in tuples: a worker polls its Ctl after every
// CkptTuples tuples, bounding cancellation latency to roughly the time one
// worker needs to process that many (tens of microseconds).
const CkptTuples = 1 << 16

// Ctl is the per-run cancellation control block: the run's context (when
// one exists) plus a stop flag raised by contained fan-outs when a sibling
// worker fails. A nil *Ctl is valid everywhere and disables all checks.
//
// One Ctl is shared by every goroutine of a run; it is allocated once per
// hardened call (or taken from the workspace's scratch slots) and must
// not be reused before every goroutine of the previous run has finished.
type Ctl struct {
	done <-chan struct{}
	ctx  context.Context
	stop atomic.Bool
	n    atomic.Uint32 // checkpoint call counter, gates the channel poll
}

// NewCtl returns a control block observing ctx (which may be nil or a
// background context; both disable the channel poll but keep the
// sibling-stop flag working).
func NewCtl(ctx context.Context) *Ctl {
	c := &Ctl{}
	c.Reset(ctx)
	return c
}

// Reset re-arms a (possibly pooled) Ctl for a new run under ctx.
func (c *Ctl) Reset(ctx context.Context) {
	c.ctx = ctx
	c.done = nil
	if ctx != nil {
		c.done = ctx.Done()
	}
	c.stop.Store(false)
	c.n.Store(0)
}

// Stop raises the sibling-stop flag: every subsequent checkpoint on this
// Ctl bails. Fan-outs call it when a worker fails so siblings abandon
// work that no longer matters. Nil-safe.
func (c *Ctl) Stop() {
	if c != nil {
		c.stop.Store(true)
	}
}

// Stopped reports whether the run has been asked to stop (sibling failure
// or context cancellation observed by a previous checkpoint). Nil-safe.
func (c *Ctl) Stopped() bool {
	return c != nil && c.stop.Load()
}

// cause returns what the bail should carry: the context's error when the
// context was canceled, otherwise the sibling-stop sentinel.
func (c *Ctl) cause() error {
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			return err
		}
	}
	return ErrSiblingStop
}

// Checkpoint polls for cancellation and unwinds (via Bail) when the run
// should stop. Nil-safe and cheap: a nil Ctl is one comparison; a live one
// is one atomic load per call plus a channel poll every ckptStride calls.
// Callers place checkpoints only at safe points — where their data is a
// valid permutation or their restore defers can make it one.
func (c *Ctl) Checkpoint() {
	if c == nil {
		return
	}
	if c.stop.Load() {
		Bail(c.cause())
	}
	if c.done == nil {
		return
	}
	if c.n.Add(1)%ckptStride != 0 {
		return
	}
	select {
	case <-c.done:
		c.stop.Store(true) // make every later checkpoint bail immediately
		Bail(c.ctx.Err())
	default:
	}
}

// CheckpointNow is Checkpoint without the stride gate: it always polls the
// done channel. Used at coarse boundaries (pass starts, worker starts)
// where the call rate is low and latency matters more than cost.
func (c *Ctl) CheckpointNow() {
	if c == nil {
		return
	}
	if c.stop.Load() {
		Bail(c.cause())
	}
	if c.done == nil {
		return
	}
	select {
	case <-c.done:
		c.stop.Store(true)
		Bail(c.ctx.Err())
	default:
	}
}

// Group is a contained goroutine fan-out: the hardened replacement for
// `var wg sync.WaitGroup; go func(){...}` region-level parallelism. Every
// Go goroutine runs under a recover that wraps the panic with the worker's
// stack, raises the group's Ctl stop flag (so sibling checkpoints bail),
// and records the failure. Wait blocks for all goroutines — panicked or
// not, so no goroutine ever leaks — and then re-raises exactly one
// failure: the first real panic if any, else the first cancellation bail.
type Group struct {
	wg  sync.WaitGroup
	ctl *Ctl

	mu     sync.Mutex
	first  *PanicError
	bailed error
}

// NewGroup returns a Group whose workers stop ctl's run on failure.
// ctl may be nil: containment still works, siblings just run to completion.
func NewGroup(ctl *Ctl) *Group {
	return &Group{ctl: ctl}
}

// Go runs fn on a new goroutine under the group's containment.
func (g *Group) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer func() {
			if e := recover(); e != nil {
				g.record(NewPanic(e))
			}
			g.wg.Done()
		}()
		fn()
	}()
}

// record stores one failure (first real panic wins over bails) and stops
// the group's run.
func (g *Group) record(e any) {
	g.mu.Lock()
	if err, ok := BailCause(e); ok {
		if g.bailed == nil {
			g.bailed = err
		}
	} else if g.first == nil {
		g.first = e.(*PanicError)
	}
	g.mu.Unlock()
	g.ctl.Stop()
}

// Wait blocks until every goroutine started with Go has finished, then
// re-panics the group's failure, if any: the first worker PanicError
// (original stack attached), else a cancellation bail. It returns normally
// only when every worker completed.
func (g *Group) Wait() {
	g.wg.Wait()
	g.mu.Lock()
	first, bailed := g.first, g.bailed
	g.first, g.bailed = nil, nil
	g.mu.Unlock()
	if first != nil {
		panic(first)
	}
	if bailed != nil {
		Bail(bailed)
	}
}
