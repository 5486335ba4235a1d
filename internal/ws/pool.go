package ws

import (
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/obs"
)

// Runner is the unit of work the pool executes: RunTask(i) is called once
// for each i in [0, n) of a Run. It is an interface rather than a func so
// hot callers can reuse one driver object (via Scratch) and pay zero
// allocations per Run — a closure would be re-boxed on every call.
type Runner interface {
	RunTask(i int)
}

// Pool is a fixed set of worker goroutines that park on a task channel
// between passes. One Pool serves every parallel kernel of a sort: passes
// reuse the same parked workers instead of spawning and retiring goroutines
// per pass (per kernel call, previously).
//
// Tasks must be independent: RunTask must not call Run on the same Pool,
// or concurrent Runs could exhaust the workers and deadlock. The sorts keep
// region-level fan-out on plain goroutines and run only leaf kernels
// (histogram, scatter, recursion workers) on the pool, so concurrent Runs
// from C regions demand at most the pool's full width.
type Pool struct {
	tasks chan task

	mu      sync.Mutex
	workers int
	closed  bool
	comps   []*completion
}

type task struct {
	r Runner
	i int
	c *completion
}

// completion tracks one Run: a countdown plus a wake-up channel, the Run's
// cancellation control, and the Run's failure record. Pooled on the Pool so
// steady-state Runs allocate nothing.
type completion struct {
	pending atomic.Int64
	done    chan struct{}
	ctl     *hard.Ctl // the Run's cancellation control; nil for plain Runs

	pmu      sync.Mutex
	panicVal *hard.PanicError // first real worker panic, worker stack attached
	bailErr  error            // first cancellation bail's cause
}

// record stores one worker failure — the first real panic wins over any
// number of cancellation bails — and stops the Run's siblings.
func (c *completion) record(e any) {
	c.pmu.Lock()
	if err, ok := hard.BailCause(e); ok {
		if c.bailErr == nil {
			c.bailErr = err
		}
	} else if c.panicVal == nil {
		c.panicVal = e.(*hard.PanicError)
	}
	c.pmu.Unlock()
	c.ctl.Stop()
}

// NewPool starts a pool of n parked workers (minimum 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{tasks: make(chan task, 4*n)}
	p.Grow(n)
	return p
}

// Grow ensures the pool has at least n workers.
func (p *Pool) Grow(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		panic("ws: Grow on closed Pool")
	}
	for p.workers < n {
		go p.work()
		p.workers++
	}
}

// Workers returns the current worker count.
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workers
}

// Close parks no more: the workers drain queued tasks and exit. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
}

func (p *Pool) work() {
	for t := range p.tasks {
		t.run()
	}
}

// run executes one task and signals its completion last. A task panic is
// wrapped with this worker's stack while it is still live (an unguarded
// goroutine panic would kill the process with no attribution; re-panicking
// on the Run caller without the wrap would lose the stack) and re-routed to
// the Run caller; siblings of the same Run are stopped so their next
// checkpoint bails instead of finishing work that no longer matters.
func (t task) run() {
	defer func() {
		if e := recover(); e != nil {
			t.c.record(hard.NewPanic(e))
		}
		if t.c.pending.Add(-1) == 0 {
			t.c.done <- struct{}{}
		}
	}()
	// Persistent workers cannot inherit the driver's pprof labels the way
	// fresh goroutines do, so pick up the current (algo, phase) scope plus
	// this task's worker index here. One atomic load when labels are off.
	if obs.ApplyWorkerLabels(t.i) {
		defer obs.ClearWorkerLabels()
	}
	fault.Inject(fault.SiteWorkerStart)
	t.c.ctl.CheckpointNow()
	t.r.RunTask(t.i)
}

// Run executes r.RunTask(i) for every i in [0, n) on the pool's workers and
// blocks until all complete. If any task panicked, Run re-panics with the
// first *hard.PanicError. A nil Pool runs the tasks serially on the calling
// goroutine (the no-workspace, single-threaded fallback).
func (p *Pool) Run(n int, r Runner) {
	p.RunCtl(n, r, nil)
}

// RunCtl is Run under a cancellation control: workers checkpoint ctl at
// task start, a worker failure stops the Run's siblings through it, and
// after all tasks finish the first failure re-raises on the caller — a real
// panic (as *hard.PanicError) preferred over a cancellation bail. ctl may
// be nil (plain containment, no cancellation). Always waits for every task
// of the Run, so no worker is still touching the caller's data when RunCtl
// returns or re-panics.
func (p *Pool) RunCtl(n int, r Runner, ctl *hard.Ctl) {
	if n <= 0 {
		return
	}
	if p == nil {
		for i := 0; i < n; i++ {
			ctl.Checkpoint()
			r.RunTask(i)
		}
		return
	}
	c := p.getComp()
	c.ctl = ctl
	c.pending.Store(int64(n))
	for i := 0; i < n; i++ {
		p.tasks <- task{r: r, i: i, c: c}
	}
	<-c.done
	pv, bail := c.panicVal, c.bailErr
	c.panicVal, c.bailErr, c.ctl = nil, nil, nil
	p.putComp(c)
	if pv != nil {
		panic(pv)
	}
	if bail != nil {
		hard.Bail(bail)
	}
}

// GoRunCtl is Run when no pool is available: n fresh goroutines under
// containment and cancellation. Each runs inside a hard.Group, so a worker
// panic does not kill the process but re-raises on the caller with the
// worker's stack after every sibling has finished. Callers use
// ws.RunWorkersCtl to pick.
func GoRunCtl(n int, r Runner, ctl *hard.Ctl) {
	if n <= 0 {
		return
	}
	g := hard.NewGroup(ctl)
	for i := 0; i < n; i++ {
		g.Go(func() {
			if obs.ApplyWorkerLabels(i) {
				defer obs.ClearWorkerLabels()
			}
			fault.Inject(fault.SiteWorkerStart)
			ctl.CheckpointNow()
			r.RunTask(i)
		})
	}
	g.Wait()
}

// RunWorkers runs r over [0, n) with n-way parallelism: on w's persistent
// pool when a workspace is present, otherwise on n fresh goroutines. With
// n == 1 the task runs inline on the caller — no handoff, no allocation.
func RunWorkers(w *Workspace, n int, r Runner) {
	RunWorkersCtl(w, n, r, nil)
}

// RunWorkersCtl is RunWorkers under a (possibly nil) cancellation control.
func RunWorkersCtl(w *Workspace, n int, r Runner, ctl *hard.Ctl) {
	switch {
	case n <= 1:
		ctl.Checkpoint()
		r.RunTask(0)
	case w != nil:
		w.Pool(n).RunCtl(n, r, ctl)
	default:
		GoRunCtl(n, r, ctl)
	}
}

// getComp pops a pooled completion (its wake-up channel already made).
func (p *Pool) getComp() *completion {
	p.mu.Lock()
	if l := p.comps; len(l) > 0 {
		c := l[len(l)-1]
		p.comps = l[:len(l)-1]
		p.mu.Unlock()
		return c
	}
	p.mu.Unlock()
	return &completion{done: make(chan struct{}, 1)}
}

func (p *Pool) putComp(c *completion) {
	p.mu.Lock()
	p.comps = append(p.comps, c)
	p.mu.Unlock()
}
