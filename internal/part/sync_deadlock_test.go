package part

import (
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/pfunc"
)

// TestTupleMoverParkUnpark unit-tests the deadlock-resolution primitives
// in isolation: parking a hand must preserve the tuple, and unparking must
// deliver it to the requested slot.
func TestTupleMoverParkUnpark(t *testing.T) {
	keys := []uint32{10, 20, 30}
	vals := []uint32{0, 1, 2}
	m := &tupleMover[uint32, pfunc.Radix[uint32]]{
		keys: keys, vals: vals, fn: pfunc.NewRadix[uint32](0, 8),
		handK: make([]uint32, 2), handV: make([]uint32, 2),
	}
	m.LoadHand(0, 1) // hand 0 = (20, 1)
	if m.HandPart(0) != 20 {
		t.Fatalf("HandPart = %d", m.HandPart(0))
	}
	p := m.Park(0)
	m.LoadHand(0, 2) // reuse the hand
	q := m.Park(0)
	if p == q {
		t.Fatal("parking tokens must be distinct")
	}
	m.Unpark(p, 0) // (20,1) -> slot 0
	m.Unpark(q, 2) // (30,2) -> slot 2
	if keys[0] != 20 || vals[0] != 1 || keys[2] != 30 || vals[2] != 2 {
		t.Fatalf("unpark wrote wrong tuples: %v %v", keys, vals)
	}
}

// TestSyncPermuteDeadlockStress hammers the synchronized permuter with
// many workers and tiny partitions so end-of-run contention actually
// triggers the park/record/fix-up path, then verifies the result anyway.
func TestSyncPermuteDeadlockStress(t *testing.T) {
	var parked atomic.Int64
	for iter := 0; iter < 300; iter++ {
		n := 64
		keys := gen.Uniform[uint32](n, 0, uint64(iter)+1)
		vals := gen.RIDs[uint32](n)
		orig := append([]uint32(nil), keys...)
		origV := append([]uint32(nil), vals...)
		fn := pfunc.NewRadix[uint32](0, 2)
		hist := Histogram(keys, fn)
		starts, _ := Starts(hist)
		m := &countingMover{tupleMover[uint32, pfunc.Radix[uint32]]{
			keys: keys, vals: vals, fn: fn,
			handK: make([]uint32, 8), handV: make([]uint32, 8),
		}, &parked}
		SyncPermute(hist, starts, 8, m)
		for p := range hist {
			for i := starts[p]; i < starts[p]+hist[p]; i++ {
				if fn.Partition(keys[i]) != p {
					t.Fatalf("iter %d: misplaced tuple", iter)
				}
			}
		}
		if kv.ChecksumPairs(keys, vals) != kv.ChecksumPairs(orig, origV) {
			t.Fatalf("iter %d: multiset changed", iter)
		}
	}
	t.Logf("deadlock fix-ups exercised: %d", parked.Load())
}

type countingMover struct {
	tupleMover[uint32, pfunc.Radix[uint32]]
	parked *atomic.Int64
}

func (c *countingMover) Park(w int) int {
	c.parked.Add(1)
	return c.tupleMover.Park(w)
}

// barrierMover forces the paper's deadlock scenario deterministically: it
// blocks each worker after its chain-start LoadHand until every worker has
// loaded, so all start slots are claimed-but-unwritten when the chains
// look for swap targets.
type barrierMover struct {
	tupleMover[uint32, pfunc.Radix[uint32]]
	loads   atomic.Int64
	workers int64
	release chan struct{}
	parked  atomic.Int64
}

func (b *barrierMover) LoadHand(w, slot int) {
	b.tupleMover.LoadHand(w, slot)
	if b.loads.Add(1) == b.workers {
		close(b.release)
	}
	<-b.release
}

func (b *barrierMover) Park(w int) int {
	b.parked.Add(1)
	return b.tupleMover.Park(w)
}

// TestSyncPermuteDeadlockDeterministic recreates the exact two-thread
// deadlock of Section 3.2.4: two partitions with one crosswise item each,
// both chain starts claimed before either chain can find a target. Both
// workers must park, and the offline fix-up must produce the correct
// arrangement.
func TestSyncPermuteDeadlockDeterministic(t *testing.T) {
	keys := []uint32{1, 0} // slot 0 holds partition 1's item and vice versa
	vals := []uint32{100, 200}
	fn := pfunc.NewRadix[uint32](0, 1)
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)
	m := &barrierMover{
		tupleMover: tupleMover[uint32, pfunc.Radix[uint32]]{
			keys: keys, vals: vals, fn: fn,
			handK: make([]uint32, 2), handV: make([]uint32, 2),
		},
		workers: 2,
		release: make(chan struct{}),
	}
	SyncPermute(hist, starts, 2, m)
	if got := m.parked.Load(); got != 2 {
		t.Fatalf("expected both workers to park, got %d", got)
	}
	if keys[0] != 0 || keys[1] != 1 || vals[0] != 200 || vals[1] != 100 {
		t.Fatalf("fix-up produced wrong arrangement: %v %v", keys, vals)
	}
}
