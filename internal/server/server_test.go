// Lifecycle tests for the sort service: admission control under tiny
// bounds, graceful and forced drain (no leaked goroutines, admission
// ledger settled back to zero), coalescing correctness, and the
// priority queue's ordering and gather contract.

package server

import (
	"cmp"
	"container/heap"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	partsort "repro"
	"repro/internal/fault"
	"repro/internal/obs"
)

// testConfig returns a config with a private registry so concurrent
// tests do not share metric series.
func testConfig() Config {
	return Config{Registry: obs.NewRegistry()}
}

// randKeys returns n deterministic pseudo-random keys.
func randKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return keys
}

// checkSorted fails unless keys is non-decreasing.
func checkSorted(t *testing.T, keys []uint64) {
	t.Helper()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("keys[%d]=%d > keys[%d]=%d", i-1, keys[i-1], i, keys[i])
		}
	}
}

// heldServer starts a single-executor server whose executor parks on a
// blocker request until release is called, so requests submitted in
// between queue behind a busy executor deterministically. release frees
// the executor and waits for the blocker's Submit to return.
func heldServer(t *testing.T, cfg Config) (s *Server, release func()) {
	t.Helper()
	held, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	cfg.Workers = 1
	s = newServer(cfg, func(*job) { once.Do(func() { close(held); <-hold }) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := s.Submit(context.Background(), &Request{
			Tenant: "blocker", Algo: partsort.LSB, Keys64: randKeys(64, -1),
		}); err != nil {
			t.Errorf("blocker Submit: %v", err)
		}
	}()
	<-held
	return s, func() {
		close(hold)
		<-done
	}
}

// drainOK drains s with a generous budget and fails the test on error.
func drainOK(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// hotKeys returns n keys below 2^20, seven in eight of them below 2^10,
// and checks that they overflow a bucket when spilled under the plan a
// server with the given memory ledger makes for them: the plan's
// buckets split the sampled domain evenly, so about 90% of the keys land
// in one bucket, past its segment, and take the in-place overflow sort
// (its seal check reads the bucket a second time).
func hotKeys(t *testing.T, n int, ledger int64) []uint64 {
	t.Helper()
	keys := randKeys(n, 99)
	for i := range keys {
		keys[i] %= 1 << 20
		if i%8 != 0 {
			keys[i] %= 1 << 10
		}
	}
	probe := append([]uint64(nil), keys...)
	st, err := partsort.SortExternal(probe, partsort.RIDs[uint64](n),
		&partsort.SortOptions{MaxAuxBytes: spillBudget(ledger), TempDir: t.TempDir()})
	if err != nil || !st.Spilled || st.ReadBytes <= st.FormationBytes {
		t.Fatalf("hot keys under a %d B ledger: err %v, spilled %v, read %d of %d formation bytes; want an overflowing bucket",
			ledger, err, st.Spilled, st.ReadBytes, st.FormationBytes)
	}
	return keys
}

// TestSubmitSpillsOverBudgetRequest drives the degradation path end to
// end: a request too big for the memory ledger runs through the external
// sort (hot keys, so a bucket overflows and is sorted in place), keeps
// its payloads attached, reports Spilled, and settles the disk ledger.
func TestSubmitSpillsOverBudgetRequest(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAuxBytes = 256 << 10
	cfg.SpillDir = t.TempDir()
	s := New(cfg)
	defer drainOK(t, s)

	const n = 16384 // charged 327,680 B (one-thread MSB's tail pair), past the 256 KiB ledger
	keys := hotKeys(t, n, cfg.MaxAuxBytes)
	vals := make([]uint64, n)
	for i, k := range keys {
		vals[i] = k ^ 0xabcdef
	}
	res, err := s.Submit(context.Background(), &Request{
		Algo: partsort.LSB, Keys64: keys, Vals64: vals,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !res.Spilled {
		t.Fatal("over-budget request did not report Spilled")
	}
	checkSorted(t, keys)
	for i, k := range keys {
		if vals[i] != k^0xabcdef {
			t.Fatalf("payload detached from key at %d", i)
		}
	}
	if got := s.PendingSpillBytes(); got != 0 {
		t.Fatalf("disk ledger holds %d bytes after completion", got)
	}
}

func TestSubmitSortsAllWidthsAndAlgos(t *testing.T) {
	cfg := testConfig()
	cfg.BatchMaxTuples = -1 // exercise the direct path
	s := New(cfg)
	defer drainOK(t, s)

	for _, algo := range []partsort.Algorithm{partsort.LSB, partsort.MSB, partsort.CMP} {
		keys := randKeys(10_000, int64(algo))
		vals := make([]uint64, len(keys))
		for i, k := range keys {
			vals[i] = k ^ 0xabcdef // payload tied to its key
		}
		res, err := s.Submit(context.Background(), &Request{
			Algo: algo, Keys64: keys, Vals64: vals,
		})
		if err != nil {
			t.Fatalf("%v: Submit: %v", algo, err)
		}
		checkSorted(t, keys)
		for i := range keys {
			if vals[i] != keys[i]^0xabcdef {
				t.Fatalf("%v: payload detached from key at %d", algo, i)
			}
		}
		if res.Batched {
			t.Fatalf("%v: request with vals must not coalesce", algo)
		}
	}

	// 32-bit key-only path (RIDs payload synthesized server-side).
	keys32 := make([]uint32, 5000)
	rng := rand.New(rand.NewSource(7))
	for i := range keys32 {
		keys32[i] = rng.Uint32()
	}
	if _, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys32: keys32}); err != nil {
		t.Fatalf("32-bit Submit: %v", err)
	}
	for i := 1; i < len(keys32); i++ {
		if keys32[i-1] > keys32[i] {
			t.Fatalf("keys32 not sorted at %d", i)
		}
	}

	// Empty request short-circuits without touching the queue.
	if _, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: []uint64{}}); err != nil {
		t.Fatalf("empty Submit: %v", err)
	}
}

func TestAdmissionRejectsWhenQueueFull(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	// The held blocker takes one depth slot, a queued request the other.
	s, release := heldServer(t, cfg)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: randKeys(64, 1)}); err != nil {
			t.Errorf("queued Submit: %v", err)
		}
	}()
	waitFor(t, time.Second, func() bool { return s.QueueDepth() == 2 })

	_, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: randKeys(64, 99)})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "queue-full" {
		t.Fatalf("want queue-full AdmissionError, got %v", err)
	}
	if adm.RetryAfter <= 0 {
		t.Fatalf("queue-full rejection carries no Retry-After hint")
	}

	release()
	drainOK(t, s)
	wg.Wait()
	if got := s.PendingAuxBytes(); got != 0 {
		t.Fatalf("ledger holds %d bytes after drain", got)
	}
}

func TestAdmissionRejectsOnMemoryBudget(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAuxBytes = 1 // below any request's estimate
	// Spilling enabled: the over-budget request degrades to an external
	// job whose planned footprint still overflows the 1-byte ledger — the
	// retryable "memory" rejection, not the terminal over-budget one.
	cfg.SpillDir = t.TempDir()
	s := New(cfg)
	defer drainOK(t, s)

	_, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: randKeys(64, 1)})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "memory" {
		t.Fatalf("want memory AdmissionError, got %v", err)
	}
	if got := s.PendingAuxBytes(); got != 0 {
		t.Fatalf("rejected request left %d bytes on the ledger", got)
	}
	if got := s.PendingSpillBytes(); got != 0 {
		t.Fatalf("rejected request left %d bytes on the disk ledger", got)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("rejected request left depth at %d", got)
	}
}

// TestAdmissionRejectsWithoutSpillDir pins the terminal variant: the
// same over-budget request with spilling disabled is an *OverBudgetError
// with the spill-disabled reason, fully rolled back.
func TestAdmissionRejectsWithoutSpillDir(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAuxBytes = 1
	s := New(cfg)
	defer drainOK(t, s)

	_, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: randKeys(64, 1)})
	var ob *OverBudgetError
	if !errors.As(err, &ob) || ob.Reason != "spill-disabled" {
		t.Fatalf("want spill-disabled OverBudgetError, got %v", err)
	}
	if ob.Need <= ob.Budget {
		t.Fatalf("error fields inconsistent: need %d, budget %d", ob.Need, ob.Budget)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("rejected request left depth at %d", got)
	}
}

func TestAdmissionRejectsOverTenantCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPerTenant = 1
	s, release := heldServer(t, cfg) // acme's first request queues behind the blocker

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), &Request{
			Tenant: "acme", Algo: partsort.LSB, Keys64: randKeys(64, 1),
		}); err != nil {
			t.Errorf("held Submit: %v", err)
		}
	}()
	waitFor(t, time.Second, func() bool { return s.QueueDepth() == 2 })

	_, err := s.Submit(context.Background(), &Request{
		Tenant: "acme", Algo: partsort.LSB, Keys64: randKeys(64, 2),
	})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "tenant-limit" {
		t.Fatalf("want tenant-limit AdmissionError, got %v", err)
	}

	// A different tenant is unaffected by acme's cap. Its request queues
	// too; once the executor frees up both run as one merged batch.
	var other sync.WaitGroup
	other.Add(1)
	go func() {
		defer other.Done()
		if _, err := s.Submit(context.Background(), &Request{
			Tenant: "globex", Algo: partsort.LSB, Keys64: randKeys(64, 3),
		}); err != nil {
			t.Errorf("other-tenant Submit: %v", err)
		}
	}()
	waitFor(t, time.Second, func() bool { return s.QueueDepth() == 3 })

	release()
	drainOK(t, s)
	wg.Wait()
	other.Wait()
}

func TestDrainGracefulNoLeaks(t *testing.T) {
	base := fault.TakeBaseline()

	cfg := testConfig()
	cfg.Workers = 4
	s := New(cfg)

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			keys := randKeys(20_000, seed)
			if _, err := s.Submit(context.Background(), &Request{Algo: partsort.MSB, Keys64: keys}); err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			for j := 1; j < len(keys); j++ {
				if keys[j-1] > keys[j] {
					t.Errorf("request %d not sorted", seed)
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()

	drainOK(t, s)
	if got := s.PendingAuxBytes(); got != 0 {
		t.Fatalf("admission ledger holds %d bytes after drain", got)
	}
	if got := s.AuxBytes(); got != 0 {
		t.Fatalf("workspace arenas hold %d bytes after drain", got)
	}
	// Submission after drain is rejected, not queued forever.
	_, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: randKeys(64, 1)})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "draining" {
		t.Fatalf("want draining AdmissionError after drain, got %v", err)
	}

	// Small coalescible submits racing Drain: each one either sorts (alone
	// or merged with whatever queued beside it) or is rejected as
	// draining — none is stranded in the queue.
	cfg = testConfig()
	cfg.Workers = 2
	s = New(cfg)
	start := make(chan struct{})
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			<-start
			keys := randKeys(256, seed)
			_, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: keys})
			var adm *AdmissionError
			switch {
			case err == nil:
				if !slices.IsSorted(keys) {
					t.Errorf("request %d not sorted", seed)
				}
			case errors.As(err, &adm) && adm.Reason == "draining":
			default:
				t.Errorf("Submit racing Drain: %v", err)
			}
		}(int64(i))
	}
	close(start)
	drainOK(t, s)
	wg.Wait()
	if got := s.PendingAuxBytes(); got != 0 {
		t.Fatalf("racing drain left %d bytes on the admission ledger", got)
	}
	if got := s.AuxBytes(); got != 0 {
		t.Fatalf("racing drain left %d workspace bytes", got)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("racing drain left depth at %d", got)
	}

	base.Verify(t, nil, "")
}

func TestDrainDeadlineForceCancels(t *testing.T) {
	base := fault.TakeBaseline()

	cfg := testConfig()
	cfg.Workers = 1
	cfg.BatchMaxTuples = -1
	s := New(cfg)

	// A sort big enough to still be mid-flight when the drain deadline
	// (1ms) fires.
	keys := randKeys(1<<22, 42)
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), &Request{Algo: partsort.CMP, Keys64: keys})
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return s.QueueDepth() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain under 1ms budget: want DeadlineExceeded, got %v", err)
	}
	subErr := <-done
	if subErr == nil {
		t.Logf("sort finished inside the drain budget; cancellation not observed")
	} else if !errors.Is(subErr, context.Canceled) && !errors.Is(subErr, context.DeadlineExceeded) {
		t.Fatalf("cancelled Submit returned %v", subErr)
	}

	if got := s.PendingAuxBytes(); got != 0 {
		t.Fatalf("forced drain left %d bytes on the ledger", got)
	}
	if got := s.AuxBytes(); got != 0 {
		t.Fatalf("forced drain left %d workspace bytes", got)
	}
	base.Verify(t, nil, "")
}

func TestSubmitCancellation(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.BatchMaxTuples = -1
	s := New(cfg)
	defer drainOK(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Submit(ctx, &Request{Algo: partsort.LSB, Keys64: randKeys(4096, 1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Submit: want context.Canceled, got %v", err)
	}
	// The abandoned job still settles its ledger charge via its executor.
	waitFor(t, 5*time.Second, func() bool { return s.PendingAuxBytes() == 0 })
}

// TestCoalescingMergesSmallRequests queues small requests behind the only
// executor: once it frees up, all of them settle as one merged run.
func TestCoalescingMergesSmallRequests(t *testing.T) {
	s, release := heldServer(t, testConfig())
	defer drainOK(t, s)

	const reqs = 8
	type out struct {
		keys []uint64
		res  Result
	}
	outs := make([]out, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := randKeys(512, int64(i+1))
			res, err := s.Submit(context.Background(), &Request{Algo: partsort.MSB, Keys64: keys})
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			outs[i] = out{keys: keys, res: res}
		}(i)
	}
	waitFor(t, time.Second, func() bool { return s.QueueDepth() == reqs+1 })
	release()
	wg.Wait()

	for i, o := range outs {
		if o.keys == nil {
			continue
		}
		checkSorted(t, o.keys)
		if !o.res.Batched || o.res.BatchRequests != reqs {
			t.Fatalf("request %d: Batched=%v BatchRequests=%d, want one merged run of %d",
				i, o.res.Batched, o.res.BatchRequests, reqs)
		}
	}
}

// TestIdleServerRunsLoneRequestUnbatched is the work-conserving half: a
// small request that finds an executor idle starts at once, alone.
func TestIdleServerRunsLoneRequestUnbatched(t *testing.T) {
	s := New(testConfig())
	defer drainOK(t, s)

	keys := randKeys(512, 1)
	res, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: keys})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	checkSorted(t, keys)
	if res.Batched || res.BatchRequests != 0 {
		t.Fatalf("lone request on an idle server: Batched=%v BatchRequests=%d", res.Batched, res.BatchRequests)
	}
}

func TestValidateRequestTable(t *testing.T) {
	cases := []struct {
		name string
		req  *Request
		arg  bool // want *partsort.ArgError
		big  bool // want *TooLargeError
	}{
		{name: "nil request", req: nil, arg: true},
		{name: "bad algo", req: &Request{Algo: 9, Keys64: []uint64{1}}, arg: true},
		{name: "bad priority", req: &Request{Algo: partsort.LSB, Priority: 3, Keys64: []uint64{1}}, arg: true},
		{name: "no key column", req: &Request{Algo: partsort.LSB}, arg: true},
		{name: "both key columns", req: &Request{Algo: partsort.LSB, Keys64: []uint64{1}, Keys32: []uint32{1}}, arg: true},
		{name: "vals width mismatch", req: &Request{Algo: partsort.LSB, Keys64: []uint64{1}, Vals32: []uint32{1}}, arg: true},
		{name: "vals length mismatch", req: &Request{Algo: partsort.LSB, Keys64: []uint64{1, 2}, Vals64: []uint64{1}}, arg: true},
		{name: "tenant too long", req: &Request{Tenant: string(make([]byte, 65)), Algo: partsort.LSB, Keys64: []uint64{1}}, arg: true},
		{name: "too large", req: &Request{Algo: partsort.LSB, Keys64: make([]uint64, 5)}, big: true},
		{name: "ok", req: &Request{Algo: partsort.CMP, Keys64: []uint64{3, 1, 2}}},
	}
	for _, tc := range cases {
		err := validateRequest(tc.req, 4)
		var argErr *partsort.ArgError
		var bigErr *TooLargeError
		switch {
		case tc.arg && !errors.As(err, &argErr):
			t.Errorf("%s: want ArgError, got %v", tc.name, err)
		case tc.big && !errors.As(err, &bigErr):
			t.Errorf("%s: want TooLargeError, got %v", tc.name, err)
		case !tc.arg && !tc.big && err != nil:
			t.Errorf("%s: want nil, got %v", tc.name, err)
		}
	}
}

// TestQueuePriorityOrdering pins pop's contract: the head is the lowest
// (priority, sequence) job; a coalescible head takes its queued
// same-width coalescible companions in that order within both batch
// caps; everything else stays queued in that order.
func TestQueuePriorityOrdering(t *testing.T) {
	// Jobs get sequence numbers 1, 2, … in table order.
	type spec struct {
		prio, width, n int
		vals, external bool
	}
	small := func(prio, width int) spec { return spec{prio: prio, width: width, n: 100} }
	cases := []struct {
		name              string
		maxReqs, maxTotal int // 0: the Config defaults
		jobs              []spec
		take              []uint64 // sequences the first pop returns, head first
		rest              []uint64 // sequences left queued, in pop order
	}{
		{
			name: "plain priority order",
			jobs: []spec{{prio: 2, width: 64, n: 1, vals: true}, {prio: 0, width: 64, n: 1, vals: true},
				{prio: 1, width: 64, n: 1, vals: true}, {prio: 0, width: 64, n: 1, vals: true}, {prio: 2, width: 64, n: 1, vals: true}},
			take: []uint64{2},
			rest: []uint64{4, 3, 1, 5},
		},
		{
			name: "lone coalescible head runs as itself",
			jobs: []spec{small(1, 64)},
			take: []uint64{1},
		},
		{
			name: "non-coalescible head takes no companions",
			jobs: []spec{{prio: 0, width: 64, n: 100, vals: true}, small(1, 64), small(1, 64)},
			take: []uint64{1},
			rest: []uint64{2, 3},
		},
		{
			name: "only the head's width merges",
			jobs: []spec{small(1, 64), small(0, 32), small(1, 32), small(2, 64), small(0, 64)},
			take: []uint64{2, 3},
			rest: []uint64{5, 1, 4},
		},
		{
			name: "vals, external and over-threshold jobs stay queued",
			jobs: []spec{small(0, 64), {prio: 0, width: 64, n: 100, vals: true},
				{prio: 0, width: 64, n: 100, external: true}, {prio: 0, width: 64, n: 4097}, small(2, 64)},
			take: []uint64{1, 5},
			rest: []uint64{2, 3, 4},
		},
		{
			name:    "request cap takes companions in priority order",
			maxReqs: 3,
			jobs:    []spec{small(2, 64), small(1, 64), small(0, 64), small(1, 64), small(0, 64)},
			take:    []uint64{3, 5, 2},
			rest:    []uint64{4, 1},
		},
		{
			name:     "key cap skips a companion that does not fit",
			maxTotal: 1000,
			jobs: []spec{{prio: 0, width: 64, n: 400}, {prio: 1, width: 64, n: 500},
				{prio: 1, width: 64, n: 300}, {prio: 2, width: 64, n: 100}},
			take: []uint64{1, 2, 4},
			rest: []uint64{3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Registry: obs.NewRegistry()}
			cfg.Normalize()
			maxReqs, maxTotal := cmp.Or(tc.maxReqs, batchMaxRequests), cmp.Or(tc.maxTotal, batchMaxTotal)
			q := newQueue(maxReqs, maxTotal)
			for i, sp := range tc.jobs {
				req := &Request{}
				if sp.width == 64 {
					req.Keys64 = make([]uint64, sp.n)
					if sp.vals {
						req.Vals64 = make([]uint64, sp.n)
					}
				} else {
					req.Keys32 = make([]uint32, sp.n)
					if sp.vals {
						req.Vals32 = make([]uint32, sp.n)
					}
				}
				j := &job{req: req, n: sp.n, prio: sp.prio, seq: uint64(i + 1), width: sp.width, external: sp.external}
				j.coalesce = cfg.coalescible(j)
				q.push(j)
			}

			j, ok := q.pop()
			if !ok {
				t.Fatal("pop on a non-empty queue reported closed")
			}
			var got []uint64
			total := 0
			if j.subs == nil {
				got, total = []uint64{j.seq}, j.n
			} else {
				for _, sub := range j.subs {
					got = append(got, sub.seq)
					total += sub.n
				}
				if j.n != total || j.width != j.subs[0].width || j.prio != j.subs[0].prio || j.seq != j.subs[0].seq {
					t.Errorf("container (n %d, width %d, prio %d, seq %d) does not match its subs (n %d, head %+v)",
						j.n, j.width, j.prio, j.seq, total, *j.subs[0])
				}
			}
			if !slices.Equal(got, tc.take) {
				t.Fatalf("pop took %v, want %v", got, tc.take)
			}
			if len(got) > maxReqs || len(got) > 1 && total > maxTotal {
				t.Fatalf("batch of %d requests, %d keys exceeds the caps", len(got), total)
			}

			var rest []uint64
			for q.jobs.Len() > 0 {
				rest = append(rest, heap.Pop(&q.jobs).(*job).seq)
			}
			if !slices.Equal(rest, tc.rest) {
				t.Fatalf("left queued %v, want %v", rest, tc.rest)
			}
			q.close()
			if _, ok := q.pop(); ok {
				t.Fatal("closed empty queue still popping")
			}
		})
	}
}

func TestArenaPoolReuseAndClose(t *testing.T) {
	p := newArenaPool(2)
	a := p.acquire(1 << 12)
	if a == nil || a.w == nil {
		t.Fatal("acquire returned no arena")
	}
	class := a.class
	p.release(a)
	b := p.acquire(1 << 12)
	if b != a {
		t.Fatalf("same-class acquire did not reuse the pooled arena (class %d)", class)
	}
	p.release(b)
	p.closeAll()
	if got := p.auxBytes(); got != 0 {
		t.Fatalf("closed pool reports %d aux bytes", got)
	}
	if c := p.acquire(1 << 12); c != nil {
		t.Fatal("closed pool handed out an arena")
	}
}

func TestBatchSortSplitsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols := make([][]uint64, 5)
	sums := make([]uint64, 5)
	for i := range cols {
		cols[i] = make([]uint64, 100+rng.Intn(400))
		for j := range cols[i] {
			cols[i][j] = rng.Uint64() >> 16
			sums[i] += cols[i][j]
		}
	}
	if err := batchSort(context.Background(), cols, &partsort.SortOptions{Threads: 1}, nil); err != nil {
		t.Fatalf("batchSort: %v", err)
	}
	for i, c := range cols {
		var sum uint64
		for j := range c {
			if j > 0 && c[j-1] > c[j] {
				t.Fatalf("col %d not sorted at %d", i, j)
			}
			sum += c[j]
		}
		if sum != sums[i] {
			t.Fatalf("col %d checksum changed: keys leaked across requests", i)
		}
	}
}

// waitFor polls cond until it holds or the budget expires.
func waitFor(t *testing.T, budget time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %s", budget)
}
