package fault

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDisabledIsInert(t *testing.T) {
	Disable()
	for _, s := range Sites() {
		Inject(s) // must not panic
	}
	if Fired() {
		t.Error("Fired true with nothing armed")
	}
}

func TestEnableFiresOnMatchingSiteOnly(t *testing.T) {
	defer Disable()
	Enable(SiteLSBPass, 0)
	Inject(SiteMSBRecurse) // wrong site: no-op
	if Fired() {
		t.Fatal("fired on the wrong site")
	}
	var got any
	func() {
		defer func() { got = recover() }()
		Inject(SiteLSBPass)
	}()
	inj, ok := got.(Injected)
	if !ok || inj.Site != SiteLSBPass {
		t.Fatalf("got %v, want Injected{lsb/pass}", got)
	}
	if !Fired() {
		t.Error("Fired false after firing")
	}
	Inject(SiteLSBPass) // fires at most once
}

func TestAfterCountdown(t *testing.T) {
	defer Disable()
	Enable(SiteCMPPass, 2)
	for i := 0; i < 2; i++ {
		Inject(SiteCMPPass)
		if Fired() {
			t.Fatalf("fired after %d hits, want after 3", i+1)
		}
	}
	var got any
	func() {
		defer func() { got = recover() }()
		Inject(SiteCMPPass)
	}()
	if _, ok := got.(Injected); !ok {
		t.Fatalf("third hit did not fire: %v", got)
	}
}

func TestConcurrentHitsFireExactlyOnce(t *testing.T) {
	defer Disable()
	Enable(SiteWorkerStart, 7)
	var fired atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				func() {
					defer func() {
						if _, ok := recover().(Injected); ok {
							fired.Add(1)
						}
					}()
					Inject(SiteWorkerStart)
				}()
			}
		}()
	}
	wg.Wait()
	if fired.Load() != 1 {
		t.Fatalf("fired %d times, want exactly 1", fired.Load())
	}
}

// The countdown must stop once the plan has fired: before the short-circuit
// fix, every post-fire hit kept decrementing `after`, wrapping it negative
// on long runs.
func TestCountdownStopsAfterFire(t *testing.T) {
	defer Disable()
	Enable(SiteLSBPass, 0)
	func() {
		defer func() { recover() }()
		Inject(SiteLSBPass)
	}()
	if !Fired() {
		t.Fatal("plan did not fire")
	}
	for i := 0; i < 1000; i++ {
		Inject(SiteLSBPass) // must not panic and must not touch the counter
	}
	p := cur.Load().plan
	if got := p.after.Load(); got != -1 {
		t.Fatalf("after = %d after post-fire hits, want -1 (countdown must freeze)", got)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	defer Disable()
	cfg := map[Site]SiteConfig{
		SiteLSBPass:    {Prob: 0.3, Budget: 3},
		SiteMSBRecurse: {Prob: 0.7, Budget: 2},
	}
	drive := func() []Event {
		s := NewSchedule(99, cfg)
		Arm(s)
		defer Disable()
		for i := 0; i < 200; i++ {
			for _, site := range []Site{SiteLSBPass, SiteMSBRecurse, SiteCMPPass} {
				func() {
					defer func() { recover() }()
					Inject(site)
				}()
			}
		}
		return s.Events()
	}
	a, b := drive(), drive()
	if len(a) == 0 {
		t.Fatal("schedule never fired over 200 hits at prob 0.3/0.7")
	}
	if len(a) != len(b) {
		t.Fatalf("logs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("log[%d] differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Every logged event must replay through the pure decision function.
	s := NewSchedule(99, cfg)
	for _, ev := range a {
		if !s.WouldFire(ev.Site, ev.Hit) {
			t.Fatalf("event %+v does not replay", ev)
		}
	}
}

func TestScheduleBudget(t *testing.T) {
	defer Disable()
	s := NewSchedule(7, map[Site]SiteConfig{SiteCMPPass: {Prob: 1, Budget: 2}})
	Arm(s)
	fired := 0
	for i := 0; i < 50; i++ {
		func() {
			defer func() {
				if _, ok := recover().(Injected); ok {
					fired++
				}
			}()
			Inject(SiteCMPPass)
		}()
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want exactly the budget of 2", fired)
	}
	if got := s.Fires(); got != 2 {
		t.Fatalf("Fires() = %d, want 2", got)
	}
	if got := s.Hits(SiteCMPPass); got != 50 {
		t.Fatalf("Hits = %d, want 50", got)
	}
	if !Fired() {
		t.Fatal("Fired() false with a fired schedule armed")
	}
}

func TestScheduleUnarmedSitesSilent(t *testing.T) {
	defer Disable()
	s := NewSchedule(1, map[Site]SiteConfig{SiteLSBPass: {Prob: 1, Budget: 1}})
	Arm(s)
	for i := 0; i < 100; i++ {
		Inject(SiteMSBRecurse) // not in the schedule: must never panic
	}
	Disable()
	s2 := NewSchedule(1, map[Site]SiteConfig{SiteLSBPass: {Prob: 0}})
	Arm(s2)
	for i := 0; i < 100; i++ {
		Inject(SiteLSBPass) // prob 0: armed but silent
	}
	if s2.Fires() != 0 {
		t.Fatal("prob-0 site fired")
	}
}

func TestScheduleConcurrentBudget(t *testing.T) {
	defer Disable()
	const budget = 5
	s := NewSchedule(3, map[Site]SiteConfig{SiteWorkerStart: {Prob: 0.5, Budget: budget}})
	Arm(s)
	var fired atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				func() {
					defer func() {
						if _, ok := recover().(Injected); ok {
							fired.Add(1)
						}
					}()
					Inject(SiteWorkerStart)
				}()
			}
		}()
	}
	wg.Wait()
	if int(fired.Load()) != budget {
		t.Fatalf("fired %d times under concurrency, want the budget of %d", fired.Load(), budget)
	}
	if s.Fires() != budget {
		t.Fatalf("log has %d events, want %d", s.Fires(), budget)
	}
	// Hits must be unique per event (each hit index decides once).
	seen := map[int64]bool{}
	for _, ev := range s.Events() {
		if seen[ev.Hit] {
			t.Fatalf("hit %d logged twice", ev.Hit)
		}
		seen[ev.Hit] = true
		if !s.WouldFire(ev.Site, ev.Hit) {
			t.Fatalf("event %+v does not replay", ev)
		}
	}
}

func TestNewScheduleValidates(t *testing.T) {
	for _, cfg := range []map[Site]SiteConfig{
		{SiteLSBPass: {Prob: -0.1}},
		{SiteLSBPass: {Prob: 1.5}},
		{SiteLSBPass: {Prob: 0.5, Budget: -1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSchedule(%+v) did not panic", cfg)
				}
			}()
			NewSchedule(1, cfg)
		}()
	}
}

func TestSitesCatalogueComplete(t *testing.T) {
	want := map[Site]bool{
		SiteLSBPass: true, SiteMSBRecurse: true, SiteCMPPass: true,
		SiteWorkerStart: true, SiteShuffleStart: true,
		SiteBlockPermute: true, SiteBlockCleanup: true,
		SiteExtSpill: true,
	}
	got := Sites()
	if len(got) != len(want) {
		t.Fatalf("Sites() has %d entries, want %d", len(got), len(want))
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected site %q", s)
		}
	}
}

// auxMeter is a fixed AuxLedger reading.
type auxMeter uint64

func (a auxMeter) AuxBytes() uint64 { return uint64(a) }

// TestBaselineCheck leaves one of each non-goroutine leak behind — an
// open descriptor, a live temp resource, checked-out aux bytes and a
// spill file — and checks that Check names every one, then passes once
// each is cleaned up.
func TestBaselineCheck(t *testing.T) {
	dir := t.TempDir()
	base := TakeBaseline()
	f, err := os.Create(filepath.Join(dir, "spill"))
	if err != nil {
		t.Fatal(err)
	}
	AcquireResource("test/tempfile")
	err = base.Check(auxMeter(64), dir)
	wants := []string{"test/tempfile=1", "64 aux bytes", "[spill]"}
	if openFDs() >= 0 {
		wants = append(wants, "fd leak")
	}
	for _, want := range wants {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Check = %v, want it to name %q", err, want)
		}
	}
	f.Close()
	os.Remove(f.Name())
	ReleaseResource("test/tempfile")
	base.Verify(t, auxMeter(0), dir)
}
