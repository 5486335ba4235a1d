package numa

import (
	"sync"
	"testing"
)

func TestTopologyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero regions")
		}
	}()
	NewTopology(0)
}

func TestTransferAccounting(t *testing.T) {
	topo := NewTopology(4)
	topo.Record(0, 1, 100)
	topo.Record(1, 0, 50)
	topo.Record(2, 2, 999) // local
	if got := topo.RemoteBytes(); got != 150 {
		t.Fatalf("RemoteBytes = %d", got)
	}
	if got := topo.LocalBytes(); got != 999 {
		t.Fatalf("LocalBytes = %d", got)
	}
	m := topo.Matrix()
	if m[0][1] != 100 || m[1][0] != 50 || m[2][2] != 999 {
		t.Fatalf("Matrix = %v", m)
	}
	topo.ResetTransfers()
	if topo.RemoteBytes() != 0 || topo.LocalBytes() != 0 {
		t.Fatal("ResetTransfers did not zero counters")
	}
}

func TestMeterFlush(t *testing.T) {
	topo := NewTopology(2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := topo.NewMeter()
			for j := 0; j < 100; j++ {
				m.Record(0, 1, 1)
			}
			m.Flush()
		}()
	}
	wg.Wait()
	if got := topo.RemoteBytes(); got != 800 {
		t.Fatalf("RemoteBytes = %d, want 800", got)
	}
}

func TestMeterFlushZeroes(t *testing.T) {
	topo := NewTopology(2)
	m := topo.NewMeter()
	m.Record(0, 1, 5)
	m.Flush()
	m.Flush() // second flush must not double-count
	if got := topo.RemoteBytes(); got != 5 {
		t.Fatalf("RemoteBytes = %d, want 5", got)
	}
}

// TestMeterBind rebinds one meter across topologies: counts recorded
// before Bind are dropped, and the reused storage fits the new size.
func TestMeterBind(t *testing.T) {
	var m Meter
	a, b := NewTopology(4), NewTopology(2)
	m.Bind(a)
	m.Record(3, 1, 7)
	m.Bind(b)
	m.Record(1, 0, 2)
	m.Flush()
	if a.RemoteBytes() != 0 || b.RemoteBytes() != 2 {
		t.Fatalf("remote bytes a=%d b=%d, want 0 and 2", a.RemoteBytes(), b.RemoteBytes())
	}
	if allocs := testing.AllocsPerRun(10, func() { m.Bind(a) }); allocs != 0 {
		t.Fatalf("rebinding to a known size allocates %v times", allocs)
	}
}

func TestSegmentedOwnership(t *testing.T) {
	topo := NewTopology(4)
	a := NewSegmented[uint32](topo, 10) // segments of 3,3,2,2
	wantBounds := []int{0, 3, 6, 8, 10}
	for i, b := range a.Bounds() {
		if b != wantBounds[i] {
			t.Fatalf("Bounds = %v", a.Bounds())
		}
	}
	owners := []Region{0, 0, 0, 1, 1, 1, 2, 2, 3, 3}
	for i, want := range owners {
		if got := a.Owner(i); got != want {
			t.Fatalf("Owner(%d) = %d, want %d", i, got, want)
		}
	}
	if got := len(a.Segment(0)); got != 3 {
		t.Fatalf("Segment(0) len = %d", got)
	}
	lo, hi := a.SegmentBounds(3)
	if lo != 8 || hi != 10 {
		t.Fatalf("SegmentBounds(3) = %d,%d", lo, hi)
	}
}

func TestSegmentsShareBacking(t *testing.T) {
	topo := NewTopology(2)
	a := NewSegmented[uint32](topo, 4)
	a.Segment(1)[0] = 42
	if a.Data[2] != 42 {
		t.Fatal("segment view does not alias backing array")
	}
}

func TestInterleavedOwnership(t *testing.T) {
	topo := NewTopology(4)
	a := NewInterleaved[uint32](topo, PageTuples*8)
	if a.Owner(0) != 0 || a.Owner(PageTuples) != 1 || a.Owner(4*PageTuples) != 0 {
		t.Fatal("interleaved ownership not round-robin by page")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Segment on interleaved array should panic")
		}
	}()
	a.Segment(0)
}

func TestWrapSegmented(t *testing.T) {
	topo := NewTopology(2)
	data := make([]uint64, 10)
	a := WrapSegmented(topo, data, []int{0, 4, 10})
	if a.Owner(3) != 0 || a.Owner(4) != 1 {
		t.Fatal("wrapped bounds not respected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad bounds should panic")
		}
	}()
	WrapSegmented(topo, data, []int{0, 4, 9})
}

func TestRunPerRegion(t *testing.T) {
	topo := NewTopology(4)
	var mu sync.Mutex
	seen := map[int]Worker{}
	RunPerRegion(topo, 2, func(w Worker) {
		mu.Lock()
		seen[w.ID] = w
		mu.Unlock()
	})
	if len(seen) != 8 {
		t.Fatalf("ran %d workers, want 8", len(seen))
	}
	perRegion := map[Region]int{}
	for _, w := range seen {
		perRegion[w.Region]++
	}
	for r := 0; r < 4; r++ {
		if perRegion[Region(r)] != 2 {
			t.Fatalf("region %d has %d workers", r, perRegion[Region(r)])
		}
	}
}

func TestRunWorkersRoundRobin(t *testing.T) {
	topo := NewTopology(3)
	var mu sync.Mutex
	regions := map[int]Region{}
	RunWorkers(topo, 7, func(w Worker) {
		mu.Lock()
		regions[w.ID] = w.Region
		mu.Unlock()
	})
	if len(regions) != 7 {
		t.Fatalf("ran %d workers", len(regions))
	}
	for id, r := range regions {
		if r != Region(id%3) {
			t.Fatalf("worker %d on region %d", id, r)
		}
	}
}
