// Package server composes the partsort library into sortd, a
// long-running multi-tenant sort service: a bounded priority job queue
// with admission control (queue depth, an auxiliary-memory ledger,
// per-tenant in-flight caps, drain state), per-size-class workspace
// arenas shared across tenants, coalescing of small key-only requests
// that queue behind busy executors into merged runs, a persistent
// executor pool running every job under the SortResilientCtx
// retry/fallback supervisor, and graceful drain/cancellation reusing the
// hardened attempt's rollback machinery. The HTTP/JSON and
// length-prefixed TCP front ends live in http.go and tcp.go; every stage
// reports into the obs metrics registry (metrics.go).
//
// The decomposition mirrors the query-node/service split of distributed
// query engines: the library kernels are the segment-level compute, this
// package is the node that owns admission, scheduling, and memory.
package server

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	partsort "repro"
	"repro/internal/obs"
	"repro/internal/tune"
)

// Config configures a Server. The zero value selects the documented
// defaults; Normalize applies them in place.
type Config struct {
	// QueueDepth bounds the number of admitted-but-unfinished requests
	// (queued + executing). Submissions past it are rejected with a retry
	// hint (default 256).
	QueueDepth int
	// Workers is the number of executor goroutines draining the job
	// queue (default GOMAXPROCS).
	Workers int
	// SortThreads is the worker count of each individual sort (default 1:
	// parallelism comes from concurrent requests, not from splitting one).
	SortThreads int
	// MaxAuxBytes is the admission ledger: the sum of the auxiliary
	// charges of all admitted requests may not exceed it (default: the
	// machine's half-of-available budget). A request's charge is the
	// largest tune.Footprint among the stages the retry supervisor can
	// run it on, and its run carries the same number as
	// SortOptions.MaxAuxBytes, so a run that outgrew it would fail its
	// attempt instead of overdrawing the ledger.
	MaxAuxBytes int64
	// MaxTuples caps a single request's key count (default 1<<26);
	// larger submissions are rejected as too large, never queued.
	MaxTuples int
	// SpillDir enables over-budget degradation: a request whose auxiliary
	// charge exceeds MaxAuxBytes runs through the external
	// (disk-spilling) sort under this directory instead of being rejected.
	// "" (the default) disables spilling; such requests fail with an
	// *OverBudgetError.
	SpillDir string
	// MaxSpillBytes is the disk ledger shared by every spilling request
	// (0: unlimited): the summed disk charges (tune.SpillPlan.DiskBytes)
	// of admitted external jobs may not exceed it. Requests past it are rejected with an
	// *OverBudgetError, never queued — disk, unlike the queue, does not
	// drain on a retry-later timescale.
	MaxSpillBytes int64
	// SpillSegmentTuples overrides the external sort's sealed-run
	// granularity (0: the admitted plan's). Mostly a test hook to force
	// deep file-backed merges on small inputs; a smaller segment only
	// shrinks the run below its charge.
	SpillSegmentTuples int
	// MaxPerTenant caps one tenant's admitted-but-unfinished requests
	// (0: no per-tenant cap).
	MaxPerTenant int
	// BatchMaxTuples is the coalescing threshold: key-only requests with
	// at most this many keys that are queued together when an executor
	// frees up merge into one batched run (default 4096; negative
	// disables coalescing). A request that finds an executor idle starts
	// at once, unbatched.
	BatchMaxTuples int
	// BatchMaxRequests caps the requests one merged run takes (default
	// 64).
	BatchMaxRequests int
	// BatchMaxTotal caps one merged run's key count (default 1<<16).
	BatchMaxTotal int
	// ArenasPerClass is how many idle workspace arenas each size class
	// keeps pooled (default 4; excess arenas are closed on release).
	ArenasPerClass int
	// Retry is the resilient-supervisor policy template for every job
	// (nil: the default policy). The per-run Stats field is managed by
	// the server; a caller-set Stats is ignored.
	Retry *partsort.RetryPolicy
	// Registry receives the server metric families (nil: the process
	// registry behind ServeMetrics). Tests pass a private registry.
	Registry *obs.Registry
}

// Normalize fills zero-valued fields with the documented defaults.
func (c *Config) Normalize() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SortThreads <= 0 {
		c.SortThreads = 1
	}
	if c.MaxAuxBytes <= 0 {
		c.MaxAuxBytes = tune.DefaultAuxBudget()
	}
	if c.MaxTuples <= 0 {
		c.MaxTuples = 1 << 26
	}
	if c.BatchMaxTuples == 0 {
		c.BatchMaxTuples = 4096
	}
	if c.BatchMaxRequests <= 0 {
		c.BatchMaxRequests = 64
	}
	if c.BatchMaxTotal <= 0 {
		c.BatchMaxTotal = 1 << 16
	}
	if c.ArenasPerClass <= 0 {
		c.ArenasPerClass = 4
	}
	if c.Registry == nil {
		c.Registry = obs.DefaultRegistry()
	}
}

// Request is one sort submission. Exactly one width's key column must be
// set; the matching vals column is optional (key-only requests are
// eligible for coalescing). The sort happens in place: on success the
// request's own slices hold the sorted output.
type Request struct {
	// Tenant names the submitting tenant ("" maps to "default").
	Tenant string
	// Algo selects the sorting algorithm (LSB, MSB, or CMP).
	Algo partsort.Algorithm
	// Priority orders the queue: 0 (interactive) before 1 (normal)
	// before 2 (batch). Out-of-range values are rejected.
	Priority int
	// Keys64 and Vals64 are the 64-bit columns.
	Keys64, Vals64 []uint64
	// Keys32 and Vals32 are the 32-bit columns.
	Keys32, Vals32 []uint32
}

// width returns the request's key width in bits (0 if no column is set).
func (r *Request) width() int {
	if r.Keys64 != nil {
		return 64
	}
	if r.Keys32 != nil {
		return 32
	}
	return 0
}

// n returns the request's key count.
func (r *Request) n() int {
	if r.Keys64 != nil {
		return len(r.Keys64)
	}
	return len(r.Keys32)
}

// hasVals reports whether the request carries a payload column.
func (r *Request) hasVals() bool { return r.Vals64 != nil || r.Vals32 != nil }

// Result reports what the server did with one request.
type Result struct {
	// QueueWait is the time from admission to execution start.
	QueueWait time.Duration
	// SortTime is the wall-clock of the sort itself (for a coalesced
	// request, the shared merged run).
	SortTime time.Duration
	// Attempts and Stage are the resilient supervisor's outcome (see
	// partsort.RetryStats).
	Attempts, Stage int
	// Degraded records that memory pressure steered the run in-place.
	Degraded bool
	// Batched reports that the request was coalesced; BatchRequests is
	// the number of requests sharing the merged run.
	Batched       bool
	BatchRequests int
	// Spilled records that the request exceeded the memory ledger and ran
	// through the external (disk-spilling) sort.
	Spilled bool
}

// AdmissionError is a rejected submission: the queue, the memory ledger,
// a tenant cap, or drain state refused the request. Front ends translate
// it to 429/503 with a Retry-After hint.
type AdmissionError struct {
	// Reason is one of "queue-full", "memory", "tenant-limit", "draining".
	Reason string
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

// Error implements error.
func (e *AdmissionError) Error() string {
	return "server: admission rejected: " + e.Reason
}

// TooLargeError is a submission whose key count exceeds Config.MaxTuples.
type TooLargeError struct {
	// N is the submitted key count; Max the configured cap.
	N, Max int
}

// Error implements error.
func (e *TooLargeError) Error() string {
	return fmt.Sprintf("server: request of %d tuples exceeds the %d-tuple cap", e.N, e.Max)
}

// OverBudgetError is a submission whose auxiliary charge exceeds the
// memory ledger and cannot degrade to the external (spill)
// path. Unlike *AdmissionError it carries no retry hint: the request can
// never fit this configuration. Front ends translate it to 413 with the
// structured reason.
type OverBudgetError struct {
	// Need is the bytes the request requires; Budget the ceiling it
	// crossed (memory or disk, per Reason).
	Need, Budget int64
	// Reason is "spill-disabled" (no Config.SpillDir, so the memory
	// ledger is the hard cap) or "disk-budget" (spilling is enabled but
	// the request's disk charge does not fit Config.MaxSpillBytes).
	Reason string
}

// Error implements error.
func (e *OverBudgetError) Error() string {
	return fmt.Sprintf("server: request needs %d bytes against a %d-byte budget (%s)",
		e.Need, e.Budget, e.Reason)
}

// jobResult carries a finished job's outcome to its Submit frame.
type jobResult struct {
	res Result
	err error
}

// job is one queued unit of execution: a single request, or a merged
// batch of coalesced small requests (subs non-nil).
type job struct {
	req   *Request
	ctx   context.Context
	n     int   // key count (batch: merged count)
	est   int64 // admission ledger charge in bytes, and the run's aux cap
	prio  int
	seq   uint64
	enq   time.Time
	done  chan jobResult // buffered(1); nil for batch containers
	width int
	subs  []*job // non-nil: this is a merged batch container

	// coalesce marks a job that may merge with queued companions of the
	// same width (Config.coalescible).
	coalesce bool

	// external routes the job through the disk-spilling sort on plan,
	// the shape it was admitted on; plan.DiskBytes is its disk ledger
	// charge and cap.
	external bool
	plan     tune.SpillPlan
}

// Server is the sort service. Create with New, submit with Submit (or
// the HTTP/TCP front ends), stop with Drain.
type Server struct {
	cfg     Config
	met     *metrics
	q       *queue
	arenas  *arenaPool
	tenants *tenantTable

	baseCtx    context.Context
	baseCancel context.CancelFunc

	workerWG sync.WaitGroup
	// popHook, when set, is called by an executor with every popped job
	// before running it (the test seam that holds executors busy).
	popHook func(*job)
	// readTimeout bounds the time from a request's first byte to its last
	// on both front ends: obs.ReadHeaderTimeout, shortened only by tests.
	readTimeout time.Duration

	// gate closes the admission window: Submit holds it shared from
	// admission through enqueue, Drain takes it exclusively to flip the
	// draining flag — so no request can slip into a queue the executors
	// have already finished.
	gate sync.RWMutex

	seq          atomic.Uint64
	depth        atomic.Int64 // admitted-but-unfinished requests
	inflight     atomic.Int64 // requests currently executing
	pendingAux   atomic.Int64 // admission ledger: aux bytes charged
	pendingSpill atomic.Int64 // disk ledger: spill bytes charged
	draining     atomic.Bool

	cancelMu sync.Mutex
	cancels  map[uint64]context.CancelFunc

	tcpConns connSet

	drainOnce sync.Once
	drainErr  error
	drained   chan struct{}

	started time.Time
}

// New starts a Server: its executor workers run until Drain. The
// configuration is normalized in place.
func New(cfg Config) *Server { return newServer(cfg, nil) }

// newServer is New with an executor popHook (nil: none).
func newServer(cfg Config, popHook func(*job)) *Server {
	cfg.Normalize()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		q:           newQueue(cfg.BatchMaxRequests, cfg.BatchMaxTotal),
		popHook:     popHook,
		readTimeout: obs.ReadHeaderTimeout,
		arenas:      newArenaPool(cfg.ArenasPerClass),
		baseCtx:     ctx,
		baseCancel:  cancel,
		cancels:     make(map[uint64]context.CancelFunc),
		drained:     make(chan struct{}),
		started:     time.Now(),
	}
	s.met = newMetrics(cfg.Registry)
	s.tenants = newTenantTable(cfg.Registry)
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// charge is the most one in-memory sort of n width-bit keys holds under
// the retry supervisor: the largest tune.Footprint among the stages
// SortResilientCtx can run it on — algo on SortThreads, algo on one
// thread, and one-thread MSB. It is the job's ledger entry and its run's
// MaxAuxBytes.
func (s *Server) charge(algo partsort.Algorithm, n, width int) int64 {
	a := tune.Algo(algo.String())
	return max(tune.Footprint(a, n, width, s.cfg.SortThreads), tune.Footprint(a, n, width, 1),
		tune.Footprint(tune.AlgoMSB, n, width, 1))
}

// Submit runs one request through admission, the queue, and an executor
// (merged with other small requests if it had to wait for one), blocking
// until the sort finished or ctx was cancelled. On success the request's slices hold the sorted
// columns. Errors: *partsort.ArgError (malformed request),
// *TooLargeError, *AdmissionError (rejected, retry later), ctx.Err()
// (caller gave up; the job is abandoned and cleaned up by its executor),
// or the sort's own typed error surfaced through the resilient
// supervisor.
func (s *Server) Submit(ctx context.Context, req *Request) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validateRequest(req, s.cfg.MaxTuples); err != nil {
		s.met.rejectedInvalid.Inc()
		return Result{}, err
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	n, width := req.n(), req.width()
	if n == 0 {
		return Result{}, nil // nothing to sort; skip the queue entirely
	}

	j := &job{
		req:   req,
		ctx:   ctx,
		n:     n,
		est:   s.charge(req.Algo, n, width),
		prio:  req.Priority,
		seq:   s.seq.Add(1),
		enq:   time.Now(),
		done:  make(chan jobResult, 1),
		width: width,
	}
	if j.coalesce = s.cfg.coalescible(j); j.coalesce {
		// Its share of a merged run's key and request-index columns,
		// which the batch allocates outside the arena.
		j.est += 2 * int64(n) * int64(width/8)
	}
	if j.est > s.cfg.MaxAuxBytes {
		// Too big for the memory ledger even alone: degrade to the
		// external spill path rather than rejecting, when configured.
		if s.cfg.SpillDir == "" {
			s.met.rejectedOverBudget.Inc()
			return Result{}, &OverBudgetError{Need: j.est, Budget: s.cfg.MaxAuxBytes, Reason: "spill-disabled"}
		}
		// The external pipeline's resident footprint is bounded by its
		// plan, not the input: charge the ledger what the run will
		// actually hold, planned against half the budget so one spilling
		// job cannot starve the in-memory traffic.
		j.plan = tune.PlanSpill(n, width, s.cfg.MaxAuxBytes/2, s.cfg.SortThreads)
		j.external, j.coalesce = true, false
		j.est = j.plan.MemBytes
	}
	s.gate.RLock()
	if err := s.admit(j); err != nil {
		s.gate.RUnlock()
		return Result{}, err
	}
	s.q.push(j)
	s.gate.RUnlock()

	select {
	case r := <-j.done:
		return r.res, r.err
	case <-ctx.Done():
		// The job stays admitted; its executor observes the cancelled
		// context, restores the permutation, and releases the ledger.
		return Result{}, ctx.Err()
	}
}

// admit applies admission control and, on success, charges the ledger,
// the depth bound, and the tenant table. Rejections are fully rolled
// back.
func (s *Server) admit(j *job) error {
	if s.draining.Load() {
		s.met.rejectedDraining.Inc()
		return &AdmissionError{Reason: "draining", RetryAfter: 2 * time.Second}
	}
	if d := s.depth.Add(1); d > int64(s.cfg.QueueDepth) {
		s.depth.Add(-1)
		s.met.rejectedQueue.Inc()
		return &AdmissionError{Reason: "queue-full", RetryAfter: s.retryAfter()}
	}
	if a := s.pendingAux.Add(j.est); a > s.cfg.MaxAuxBytes {
		s.pendingAux.Add(-j.est)
		s.depth.Add(-1)
		s.met.rejectedMemory.Inc()
		return &AdmissionError{Reason: "memory", RetryAfter: s.retryAfter()}
	}
	if disk := j.plan.DiskBytes; disk > 0 {
		if sp := s.pendingSpill.Add(disk); s.cfg.MaxSpillBytes > 0 && sp > s.cfg.MaxSpillBytes {
			s.pendingSpill.Add(-disk)
			s.pendingAux.Add(-j.est)
			s.depth.Add(-1)
			s.met.rejectedOverBudget.Inc()
			return &OverBudgetError{Need: disk, Budget: s.cfg.MaxSpillBytes, Reason: "disk-budget"}
		}
		s.met.pendingSpill.Set(float64(s.pendingSpill.Load()))
	}
	if !s.tenants.acquire(j.req.Tenant, s.cfg.MaxPerTenant) {
		if disk := j.plan.DiskBytes; disk > 0 {
			s.pendingSpill.Add(-disk)
			s.met.pendingSpill.Set(float64(s.pendingSpill.Load()))
		}
		s.pendingAux.Add(-j.est)
		s.depth.Add(-1)
		s.met.rejectedTenant.Inc()
		return &AdmissionError{Reason: "tenant-limit", RetryAfter: s.retryAfter()}
	}
	s.met.admitted.Inc()
	s.met.queueDepth.Set(float64(s.depth.Load()))
	s.met.pendingAux.Set(float64(s.pendingAux.Load()))
	return nil
}

// coalescible reports whether a job may merge into a batched run:
// key-only, in memory, and at most BatchMaxTuples keys.
func (c *Config) coalescible(j *job) bool {
	return !j.external && c.BatchMaxTuples > 0 && !j.req.hasVals() && j.n <= c.BatchMaxTuples
}

// retryAfter scales the client backoff hint with queue pressure: an
// almost-drained queue suggests a quick retry, a saturated one a longer
// pause.
func (s *Server) retryAfter() time.Duration {
	d := s.depth.Load()
	if cap := int64(s.cfg.QueueDepth); cap > 0 && d > cap/2 {
		return time.Second
	}
	return 250 * time.Millisecond
}

// finish settles one admitted request: ledger, depth, tenant, metrics,
// and the submitter's done channel.
func (s *Server) finish(j *job, res Result, err error) {
	s.pendingAux.Add(-j.est)
	if disk := j.plan.DiskBytes; disk > 0 {
		s.pendingSpill.Add(-disk)
		s.met.pendingSpill.Set(float64(s.pendingSpill.Load()))
	}
	s.depth.Add(-1)
	s.tenants.release(j.req.Tenant)
	s.met.queueDepth.Set(float64(s.depth.Load()))
	s.met.pendingAux.Set(float64(s.pendingAux.Load()))
	switch {
	case err == nil:
		s.met.requestsOK.Inc()
	case err == context.Canceled || err == context.DeadlineExceeded:
		s.met.requestsCanceled.Inc()
	default:
		s.met.requestsErr.Inc()
	}
	if j.done != nil {
		j.done <- jobResult{res: res, err: err}
	}
}

// worker is one executor: it drains the priority queue until the queue
// closes empty.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		if s.popHook != nil {
			s.popHook(j)
		}
		s.run(j)
	}
}

// run executes one popped job (single or batch container).
func (s *Server) run(j *job) {
	s.inflight.Add(1)
	s.met.inflight.Set(float64(s.inflight.Load()))
	defer func() {
		s.inflight.Add(-1)
		s.met.inflight.Set(float64(s.inflight.Load()))
	}()
	if j.subs != nil {
		s.runBatch(j)
		return
	}
	wait := time.Since(j.enq)
	s.met.queueWait.ObserveDuration(wait, 0)
	res, err := s.execute(j)
	res.QueueWait = wait
	s.met.requestDur.ObserveDuration(time.Since(j.enq), 0)
	s.finish(j, res, err)
}

// runCtx derives the context one sort runs under: the job's own context
// (client cancellation) that the drain deadline can also force-cancel.
func (s *Server) runCtx(j *job) (context.Context, func()) {
	ctx := j.ctx
	if ctx == nil || j.subs != nil {
		// Batch containers span clients; only the server may cancel them.
		ctx = s.baseCtx
	}
	ctx, cancel := context.WithCancel(ctx)
	s.cancelMu.Lock()
	s.cancels[j.seq] = cancel
	s.cancelMu.Unlock()
	return ctx, func() {
		s.cancelMu.Lock()
		delete(s.cancels, j.seq)
		s.cancelMu.Unlock()
		cancel()
	}
}

// forceCancelAll cancels every running job — the drain deadline's hard
// phase.
func (s *Server) forceCancelAll() {
	s.cancelMu.Lock()
	for _, cancel := range s.cancels {
		cancel()
	}
	s.cancelMu.Unlock()
}

// execute runs one job on a pooled arena under its charge: a batch
// container as one merged LSB run, an external job through the
// disk-spilling sort, anything else under the resilient supervisor.
func (s *Server) execute(j *job) (Result, error) {
	if s.baseCtx.Err() != nil {
		return Result{}, context.Canceled
	}
	ctx, release := s.runCtx(j)
	defer release()

	arena := s.arenas.acquire(j.n)
	defer s.arenas.release(arena)

	opt := s.options(j, arena.pub())
	var pol partsort.RetryPolicy
	if s.cfg.Retry != nil {
		pol = *s.cfg.Retry
	}
	rs := partsort.RetryStats{Attempts: 1} // the external sort runs once
	pol.Stats = &rs
	start := time.Now()
	var spilled bool
	var err error
	if j.width == 64 {
		spilled, err = sortJob(ctx, j, opt, &pol, func(r *Request) ([]uint64, []uint64) { return r.Keys64, r.Vals64 })
	} else {
		spilled, err = sortJob(ctx, j, opt, &pol, func(r *Request) ([]uint32, []uint32) { return r.Keys32, r.Vals32 })
	}
	dur := time.Since(start)
	s.met.sortDur(j.req.Algo).ObserveDuration(dur, 0)
	if err == nil && spilled {
		s.met.spilled.Inc()
	}
	if err != nil && j.ctx != nil && j.ctx.Err() != nil {
		err = j.ctx.Err()
	}
	return Result{SortTime: dur, Attempts: rs.Attempts, Stage: rs.Stage, Degraded: rs.Degraded, Spilled: spilled}, err
}

// options builds the SortOptions a job runs under. Its charge is its
// aux cap. An external job runs the spill plan it was admitted on — its
// segment and fanout — capped at that plan's DiskBytes; the
// retry supervisor does not apply to it (the external pipeline has its
// own containment, and an input this size has no in-memory fallback).
func (s *Server) options(j *job, w *partsort.Workspace) *partsort.SortOptions {
	opt := &partsort.SortOptions{Threads: s.cfg.SortThreads, Workspace: w, MaxAuxBytes: j.est}
	if !j.external {
		return opt
	}
	opt.TempDir = s.cfg.SpillDir
	opt.MaxSpillBytes = j.plan.DiskBytes
	opt.SpillSegmentTuples = cmp.Or(s.cfg.SpillSegmentTuples, j.plan.SegmentTuples)
	opt.SpillBucketBits = j.plan.BucketBits
	return opt
}

// sortJob runs j on the key and payload columns cols picks out of a
// request: a batch container's merged run, an external job's spill sort,
// or one supervised in-memory sort, with row ids as the payload of a
// key-only request. It reports whether the external sort spilled.
func sortJob[K partsort.Key](ctx context.Context, j *job, opt *partsort.SortOptions, pol *partsort.RetryPolicy, cols func(*Request) (keys, vals []K)) (bool, error) {
	if j.subs != nil {
		merged := make([][]K, len(j.subs))
		for i, sub := range j.subs {
			merged[i], _ = cols(sub.req)
		}
		return false, batchSort(ctx, merged, opt, pol)
	}
	keys, vals := cols(j.req)
	if vals == nil {
		vals = partsort.RIDs[K](len(keys))
	}
	if j.external {
		st, err := partsort.SortExternalCtx(ctx, keys, vals, opt)
		return st.Spilled, err
	}
	return false, partsort.SortResilientCtx(ctx, j.req.Algo, keys, vals, opt, pol)
}

// Draining reports whether the server has stopped admitting requests.
func (s *Server) Draining() bool { return s.draining.Load() }

// QueueDepth returns the admitted-but-unfinished request count.
func (s *Server) QueueDepth() int { return int(s.depth.Load()) }

// PendingAuxBytes returns the admission ledger's current charge.
func (s *Server) PendingAuxBytes() int64 { return s.pendingAux.Load() }

// PendingSpillBytes returns the disk ledger's current charge: the summed
// disk charges of admitted external jobs.
func (s *Server) PendingSpillBytes() int64 { return s.pendingSpill.Load() }

// AuxBytes returns the auxiliary scratch bytes currently checked out of
// the server's workspace arenas (0 when the server is idle or drained).
func (s *Server) AuxBytes() int64 { return s.arenas.auxBytes() }

// Drain gracefully stops the server: admission flips to rejecting, the
// executors finish the queue (still merging what waits in it), and the
// workspace arenas close. If ctx expires first, every
// running job is cancelled through its Try*Ctx rollback (inputs left a
// permutation) and Drain waits for the executors to unwind before
// returning ctx's error. Idempotent: later calls return the first
// outcome after it completes.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		defer close(s.drained)
		s.gate.Lock()
		s.draining.Store(true)
		s.gate.Unlock() // in-flight Submits have enqueued; new ones reject
		s.q.close()     // executors exit once the queue is empty

		workersDone := make(chan struct{})
		go func() {
			s.workerWG.Wait()
			close(workersDone)
		}()
		select {
		case <-workersDone:
		case <-ctx.Done():
			// Hard phase: cancel the base context (queued jobs bail
			// before sorting) and every running sort, then wait for the
			// unwind — containment guarantees it terminates.
			s.baseCancel()
			s.forceCancelAll()
			<-workersDone
			s.drainErr = ctx.Err()
		}
		s.baseCancel()
		s.arenas.closeAll()
		if aux := s.pendingAux.Load(); aux != 0 && s.drainErr == nil {
			s.drainErr = fmt.Errorf("server: drain left %d aux bytes on the admission ledger", aux)
		}
		if sp := s.pendingSpill.Load(); sp != 0 && s.drainErr == nil {
			s.drainErr = fmt.Errorf("server: drain left %d spill bytes on the disk ledger", sp)
		}
	})
	<-s.drained
	return s.drainErr
}

// validateRequest checks one submission's shape against the option
// rules the library's validator applies to columns.
func validateRequest(req *Request, maxTuples int) error {
	if req == nil {
		return &partsort.ArgError{Func: "server.Submit", Field: "request", Reason: "nil"}
	}
	switch req.Algo {
	case partsort.LSB, partsort.MSB, partsort.CMP:
	default:
		return &partsort.ArgError{Func: "server.Submit", Field: "algo", Reason: "must be LSB, MSB, or CMP"}
	}
	if req.Priority < 0 || req.Priority > 2 {
		return &partsort.ArgError{Func: "server.Submit", Field: "priority",
			Reason: fmt.Sprintf("%d; must be in [0, 2]", req.Priority)}
	}
	if len(req.Tenant) > 64 {
		return &partsort.ArgError{Func: "server.Submit", Field: "tenant", Reason: "longer than 64 bytes"}
	}
	has64, has32 := req.Keys64 != nil, req.Keys32 != nil
	if has64 == has32 {
		return &partsort.ArgError{Func: "server.Submit", Field: "keys",
			Reason: "exactly one of the 32- and 64-bit key columns must be set"}
	}
	if has64 && req.Vals32 != nil || has32 && req.Vals64 != nil {
		return &partsort.ArgError{Func: "server.Submit", Field: "vals",
			Reason: "payload width does not match key width"}
	}
	if req.Vals64 != nil && len(req.Vals64) != len(req.Keys64) {
		return &partsort.ArgError{Func: "server.Submit", Field: "vals",
			Reason: fmt.Sprintf("length %d does not match keys length %d", len(req.Vals64), len(req.Keys64))}
	}
	if req.Vals32 != nil && len(req.Vals32) != len(req.Keys32) {
		return &partsort.ArgError{Func: "server.Submit", Field: "vals",
			Reason: fmt.Sprintf("length %d does not match keys length %d", len(req.Vals32), len(req.Keys32))}
	}
	if n := req.n(); n > maxTuples {
		return &TooLargeError{N: n, Max: maxTuples}
	}
	return nil
}
