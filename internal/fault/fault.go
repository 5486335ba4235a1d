// Package fault is a build-tag-free fault-injection harness for the
// hardened-execution tests: kernels declare named injection sites at the
// safe points where a crash must be survivable (pass boundaries, worker
// start, block-store refill), and tests arm one site at a time to prove
// that the panic surfaces as an *InternalError with all goroutines reaped
// and the input left a valid permutation.
//
// Two arming modes share the sites:
//
//   - Enable arms the classic single-shot deterministic plan: one site, a
//     hit countdown, at most one fire — the per-cell fault matrix of
//     TestTryFaultMatrix and the other try tests.
//   - Arm installs a chaos Schedule: every configured site carries an
//     independent per-hit fire probability and a fire budget, decisions
//     are a pure function of (seed, site, hit index) so a schedule is
//     reproducible, sites fire repeatedly until their budget runs out,
//     and every fire is recorded in an event log. This is what
//     TestResilientChaosMatrix drives to exercise the retry supervisor
//     under compound, randomized failure.
//
// Like internal/obs, the disabled path is paid for with a single atomic
// pointer load and a nil check — no build tags, so the injection sites are
// compiled into production binaries but cost nothing until a test arms
// them. Sites sit only where every enclosing layer can restore its
// invariants; adding one inside an unrestorable window (the legacy
// synchronized tuple shuffle, a CMP leaf sort) would make the permutation
// guarantee a lie. The block-permutation kernel's permute loop is restorable
// — workers park their in-flight hand blocks on unwind, so SiteBlockPermute
// and SiteBlockCleanup sit inside it.
package fault

import (
	"sync"
	"sync/atomic"
)

// Site names one injection point. The catalogue below is the complete set;
// Sites() returns it for harnesses that iterate.
type Site string

const (
	// SiteLSBPass fires at the top of each LSB radix pass (per region on
	// the NUMA path), before any tuple of that pass has moved.
	SiteLSBPass Site = "lsb/pass"
	// SiteMSBRecurse fires at the entry of each MSB recursion step, where
	// the segment is in place and untouched by the step.
	SiteMSBRecurse Site = "msb/recurse"
	// SiteCMPPass fires at the entry of each comparison-sort range
	// partitioning recursion, before the level's scatter begins.
	SiteCMPPass Site = "cmp/pass"
	// SiteWorkerStart fires when a fan-out worker begins: pool tasks and
	// contained plain-goroutine workers.
	SiteWorkerStart Site = "worker/start"
	// SiteShuffleStart fires on the coordinator immediately before the
	// cross-region shuffle, the last point where the pre-shuffle layout is
	// trivially restorable.
	SiteShuffleStart Site = "shuffle/start"
	// SiteBlockPermute fires inside the in-place block-permutation kernel's
	// cooperative permute loop, between block claims — with the worker's
	// hand block in flight, exercising the park-on-unwind restore.
	SiteBlockPermute Site = "blocks/permute"
	// SiteBlockCleanup fires at the start of the block-permutation cleanup
	// phase, after the permute loop has placed every full block but before
	// partial buffer blocks are written into the gaps.
	SiteBlockCleanup Site = "blocks/cleanup"
	// SiteExtSpill fires in the external sort's spill writer, at each
	// bucket line flush of run formation, with tuples durable on disk or
	// still intact in the input, so containment can always restore the
	// permutation and remove the temp files.
	SiteExtSpill Site = "extsort/spill"
)

// Sites returns the full catalogue of injection sites.
func Sites() []Site {
	return []Site{
		SiteLSBPass,
		SiteMSBRecurse,
		SiteCMPPass,
		SiteWorkerStart,
		SiteShuffleStart,
		SiteBlockPermute,
		SiteBlockCleanup,
		SiteExtSpill,
	}
}

// Injected is the panic value raised by an armed site. Tests assert the
// resulting *InternalError wraps it.
type Injected struct {
	Site Site
}

// Error implements error, naming the site that fired.
func (e Injected) Error() string {
	return "fault: injected panic at site " + string(e.Site)
}

// plan is one armed single-shot injection: a site, a countdown of hits to
// skip, and a fired-once latch.
type plan struct {
	site  Site
	after atomic.Int64 // remaining hits to skip before firing
	fired atomic.Bool
}

// armed is what the global pointer holds: exactly one of the two arming
// modes. Keeping them behind one pointer preserves the single-atomic-load
// disabled path.
type armed struct {
	plan  *plan
	sched *Schedule
}

// cur is the armed state; nil (the steady state) disables all sites.
var cur atomic.Pointer[armed]

// Enable arms one site: the (after+1)-th Inject call on it panics with
// Injected{site}; every other call, and every other site, is untouched.
// The plan fires at most once. Not meant for concurrent arming — tests
// enable, run, then Disable. Replaces any armed Schedule.
func Enable(site Site, after int) {
	p := &plan{site: site}
	p.after.Store(int64(after))
	cur.Store(&armed{plan: p})
}

// Disable disarms injection (the steady state): both single-shot plans and
// chaos schedules.
func Disable() {
	cur.Store(nil)
}

// Fired reports whether the currently armed plan or schedule has fired at
// least once. False when nothing is armed.
func Fired() bool {
	a := cur.Load()
	switch {
	case a == nil:
		return false
	case a.plan != nil:
		return a.plan.fired.Load()
	default:
		return a.sched.Fires() > 0
	}
}

// Inject is the site hook kernels call at their named safe points. With no
// plan or schedule armed (one atomic load, one nil check) it is free. An
// armed single-shot plan counts down matching hits and panics exactly once
// when the countdown crosses zero; after it has fired the countdown is left
// alone, so arbitrarily long runs cannot wrap it. An armed schedule decides
// each hit independently; see Schedule.
func Inject(s Site) {
	a := cur.Load()
	if a == nil {
		return
	}
	if p := a.plan; p != nil {
		if p.site != s || p.fired.Load() {
			return
		}
		if p.after.Add(-1) == -1 {
			p.fired.Store(true)
			panic(Injected{Site: s})
		}
		return
	}
	a.sched.inject(s)
}

// SiteConfig is one site's arming in a chaos Schedule.
type SiteConfig struct {
	// Prob is the per-hit fire probability in [0, 1]. Zero disarms the
	// site (equivalent to omitting it from the schedule).
	Prob float64
	// Budget caps how many times the site may fire over the schedule's
	// lifetime; 0 means unlimited. A bounded budget is what lets a retry
	// supervisor eventually win: once every armed site has exhausted its
	// budget, the next attempt runs clean.
	Budget int
}

// Event records one fire of a chaos schedule: the site and the 1-based
// per-site hit index at which it fired. Because the fire decision is a
// pure function of (seed, site, hit index), an Event is replayable:
// Schedule.WouldFire(ev.Site, ev.Hit) is true for every logged event of a
// schedule built from the same seed and config.
type Event struct {
	Site Site  `json:"site"`
	Hit  int64 `json:"hit"`
}

// siteState is the per-site runtime of an armed schedule.
type siteState struct {
	cfg   SiteConfig
	hits  atomic.Int64 // Inject calls seen on this site
	fires atomic.Int64 // fires so far (budget enforcement)
}

// Schedule is a seeded, reproducible multi-site chaos plan: every
// configured site is armed with an independent per-hit fire probability
// and an optional fire budget, and fires repeatedly (not fire-once).
//
// Reproducibility contract: whether the k-th hit of a site fires is a pure
// function of (seed, site, k) — independent of goroutine interleaving. A
// single-threaded run therefore produces a byte-identical event log when
// re-run with the same seed and config; a parallel run may reach different
// hit counts per attempt (scheduling decides how far siblings get before
// an injected panic unwinds them), but every logged event still verifies
// against WouldFire.
//
// A Schedule is safe for concurrent use by the workers of a run. Arm it
// with Arm; it keeps recording across retries until Disable.
type Schedule struct {
	seed  uint64
	sites map[Site]*siteState

	mu  sync.Mutex
	log []Event
}

// NewSchedule builds a chaos schedule from a seed and per-site configs.
// Sites with Prob 0 may be omitted. Panics on a probability outside [0, 1]
// or a negative budget — schedules are test harness configuration, so a
// malformed one is a bug in the harness, not an input error.
func NewSchedule(seed uint64, cfg map[Site]SiteConfig) *Schedule {
	s := &Schedule{seed: seed, sites: make(map[Site]*siteState, len(cfg))}
	for site, c := range cfg {
		if c.Prob < 0 || c.Prob > 1 {
			panic("fault: NewSchedule: probability out of [0,1] for site " + string(site))
		}
		if c.Budget < 0 {
			panic("fault: NewSchedule: negative budget for site " + string(site))
		}
		s.sites[site] = &siteState{cfg: c}
	}
	return s
}

// Arm installs s as the process-wide chaos schedule, replacing any armed
// single-shot plan. Disable disarms it.
func Arm(s *Schedule) {
	cur.Store(&armed{sched: s})
}

// inject decides one hit: count it, consult the pure decision function,
// claim budget, log, and panic. Concurrent hits on one site serialize only
// on the per-site atomic hit counter, so the k-th hit always exists and
// always decides the same way.
func (c *Schedule) inject(s Site) {
	st := c.sites[s]
	if st == nil || st.cfg.Prob <= 0 {
		return
	}
	hit := st.hits.Add(1)
	if !decide(c.seed, s, hit, st.cfg.Prob) {
		return
	}
	for {
		f := st.fires.Load()
		if st.cfg.Budget > 0 && f >= int64(st.cfg.Budget) {
			return // budget exhausted: the site has gone quiet
		}
		if st.fires.CompareAndSwap(f, f+1) {
			break
		}
	}
	c.mu.Lock()
	c.log = append(c.log, Event{Site: s, Hit: hit})
	c.mu.Unlock()
	panic(Injected{Site: s})
}

// WouldFire reports the pure fire decision for the given site and 1-based
// hit index under this schedule's seed and config, ignoring budgets — the
// replay verifier for logged events.
func (c *Schedule) WouldFire(s Site, hit int64) bool {
	st := c.sites[s]
	if st == nil || st.cfg.Prob <= 0 {
		return false
	}
	return decide(c.seed, s, hit, st.cfg.Prob)
}

// Events returns a copy of the fire log in firing order.
func (c *Schedule) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.log...)
}

// Fires returns how many times the schedule has fired so far.
func (c *Schedule) Fires() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.log)
}

// Hits returns how many Inject calls the schedule has seen on site s.
func (c *Schedule) Hits(s Site) int64 {
	st := c.sites[s]
	if st == nil {
		return 0
	}
	return st.hits.Load()
}

// decide is the pure per-hit fire decision: a splitmix64 hash of (seed,
// site, hit) mapped to [0, 1) and compared against the probability.
func decide(seed uint64, s Site, hit int64, prob float64) bool {
	h := splitmix64(seed ^ siteHash(s) ^ (uint64(hit) * 0x9e3779b97f4a7c15))
	return float64(h>>11)/(1<<53) < prob
}

// siteHash is FNV-1a over the site name, mixing the site identity into the
// decision hash so sites armed with equal probabilities fire independently.
func siteHash(s Site) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
