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
