package ws

import (
	"sync"
	"testing"
	"unsafe"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, c int }{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 28, numClasses - 1},
	}
	for _, tc := range cases {
		if got := classFor(tc.n); got != tc.c {
			t.Errorf("classFor(%d) = %d, want %d", tc.n, got, tc.c)
		}
		if c := classFor(tc.n); c >= 0 && classSize(c) < tc.n {
			t.Errorf("classSize(classFor(%d)) = %d < request", tc.n, classSize(c))
		}
	}
	if got := classFor(1<<28 + 1); got != -1 {
		t.Errorf("oversize request got class %d, want -1", got)
	}
}

func TestIntsReuse(t *testing.T) {
	w := New()
	a := w.Ints(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("Ints(100): len %d cap %d, want 100/128", len(a), cap(a))
	}
	p0 := unsafe.SliceData(a)
	w.PutInts(a)
	b := w.Ints(120) // same class: must reuse the same block
	if unsafe.SliceData(b) != p0 {
		t.Fatal("same-class reacquisition did not reuse the buffer")
	}
	hits, misses := w.Counters()
	if hits != 1 || misses != 1 {
		t.Fatalf("counters = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestIntsSpillReuse witnesses the smaller-fanout fix: a pooled wide
// histogram/offset buffer (say fanout 4096 from an early pass) serves a
// later narrower request (fanout 256) as a hit instead of allocating, and
// the borrowed buffer returns to its true capacity class.
func TestIntsSpillReuse(t *testing.T) {
	w := New()
	wide := w.Ints(4096)
	p0 := unsafe.SliceData(wide)
	w.PutInts(wide)

	narrow := w.Ints(256) // 4 classes below: within spillClasses
	if unsafe.SliceData(narrow) != p0 {
		t.Fatal("smaller-fanout reacquisition did not borrow the pooled wide buffer")
	}
	if len(narrow) != 256 || cap(narrow) != 4096 {
		t.Fatalf("borrowed buffer: len %d cap %d, want 256/4096", len(narrow), cap(narrow))
	}
	if hits, misses := w.Counters(); hits != 1 || misses != 1 {
		t.Fatalf("counters = %d hits / %d misses, want 1/1", hits, misses)
	}

	// Returning the borrowed buffer pools it under its true class: the next
	// wide request hits again.
	w.PutInts(narrow)
	wide2 := w.Ints(4096)
	if unsafe.SliceData(wide2) != p0 {
		t.Fatal("borrowed buffer did not return to its capacity class")
	}
	w.PutInts(wide2)

	// Beyond the spill window the scan must not borrow: a class-0 request
	// against a lone 4096-cap buffer (6 classes up) is a miss.
	if small := w.Ints(64); unsafe.SliceData(small) == p0 {
		t.Fatal("spill window exceeded spillClasses")
	}
	if _, misses := w.Counters(); misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
}

// TestBudgetMetersExactClasses checks that a budgeted arena meters every
// acquisition at ws.Capacity of its request, so a model priced by
// Capacity bounds a run in a warm arena too: Ints lends no larger pooled
// class, and a pooled matrix row of a larger class goes back to the Ints
// classes for one of the request's. Both still reuse what fits exactly.
func TestBudgetMetersExactClasses(t *testing.T) {
	w := New()
	w.SetBudget(1 << 20)
	w.PutInts(w.Ints(4096))
	if narrow := w.Ints(256); cap(narrow) != 256 || w.AuxBytes() != uint64(256*intSize) {
		t.Fatalf("budgeted narrow request: cap %d, %d B metered; want 256 ints", cap(narrow), w.AuxBytes())
	} else {
		w.PutInts(narrow)
	}
	w.PutMatrix(w.Matrix(2, 4096))
	m := w.Matrix(2, 256)
	if cap(m[0]) != 256 || cap(m[1]) != 256 || w.AuxBytes() != uint64(2*256*intSize) {
		t.Fatalf("budgeted narrow matrix: row caps %d/%d, %d B metered; want 256 ints a row",
			cap(m[0]), cap(m[1]), w.AuxBytes())
	}
	w.PutMatrix(m)
	if wide := w.Ints(4096); cap(wide) != 4096 {
		t.Fatalf("the re-pooled 4096-int row was not reused: cap %d", cap(wide))
	}
}

func TestPutRejectsForeignBuffers(t *testing.T) {
	w := New()
	w.PutInts(make([]int, 100)) // cap 100 is not a class size: dropped
	a := w.Ints(100)
	if _, misses := w.Counters(); misses != 1 {
		t.Fatal("foreign buffer was pooled")
	}
	w.PutInts(a)
}

func TestNilWorkspace(t *testing.T) {
	var w *Workspace
	if got := w.Ints(10); len(got) != 10 {
		t.Fatal("nil workspace Ints")
	}
	if got := Keys[uint64](w, 10); len(got) != 10 {
		t.Fatal("nil workspace Keys")
	}
	if got := w.Matrix(3, 4); len(got) != 3 || len(got[0]) != 4 {
		t.Fatal("nil workspace Matrix")
	}
	if got := Scratch[int](w, SlotScatter); got == nil {
		t.Fatal("nil workspace Scratch")
	}
	w.PutInts(nil)
	PutKeys[uint32](w, nil)
	w.PutMatrix(nil)
	PutScratch[int](w, SlotScatter, nil)
	w.Close()
	if w.Pool(4) != nil {
		t.Fatal("nil workspace must have a nil pool")
	}
	if h, m := w.Counters(); h != 0 || m != 0 {
		t.Fatal("nil workspace counters")
	}
}

func TestKeysTyping(t *testing.T) {
	w := New()
	k32 := Keys[uint32](w, 50)
	k32[49] = 7
	PutKeys(w, k32)
	i32 := w.Int32s(50) // same 32-bit arena: block is shared across types
	i32[0] = -1
	w.PutInt32s(i32)
	k64 := Keys[uint64](w, 50)
	k64[49] = 1 << 40
	PutKeys(w, k64)
	hits, _ := w.Counters()
	if hits != 1 {
		t.Fatalf("32-bit arena reuse across element types: hits = %d, want 1", hits)
	}
}

func TestMatrixReuse(t *testing.T) {
	w := New()
	m := w.Matrix(4, 256)
	for i := range m {
		if len(m[i]) != 256 {
			t.Fatalf("row %d has len %d", i, len(m[i]))
		}
		m[i][255] = i
	}
	w.PutMatrix(m)
	h0, _ := w.Counters()
	m2 := w.Matrix(4, 128) // smaller shape: spine and rows reused in place
	h1, m1 := w.Counters()
	if h1-h0 != 1 {
		t.Fatalf("matrix reacquisition hits = %d, want 1", h1-h0)
	}
	if len(m2) != 4 || len(m2[0]) != 128 {
		t.Fatalf("matrix shape %dx%d", len(m2), len(m2[0]))
	}
	w.PutMatrix(m2)
	_ = m1
}

func TestResizeInts(t *testing.T) {
	w := New()
	row := w.ResizeInts(nil, 10)
	if len(row) != 10 {
		t.Fatal("grow from nil")
	}
	same := w.ResizeInts(row, 5)
	if unsafe.SliceData(same) != unsafe.SliceData(row) {
		t.Fatal("shrink must reuse backing array")
	}
	grown := w.ResizeInts(same, 1000)
	if len(grown) != 1000 {
		t.Fatal("grow")
	}
	w.PutInts(grown)
}

func TestScratchSlots(t *testing.T) {
	type driver struct{ x int }
	w := New()
	d := Scratch[driver](w, SlotCmpWork)
	d.x = 42
	PutScratch(w, SlotCmpWork, d)
	d2 := Scratch[driver](w, SlotCmpWork)
	if d2 != d || d2.x != 42 {
		t.Fatal("scratch slot did not return the pooled object")
	}
	// A different type in the same slot must not be handed out.
	type other struct{ y float64 }
	PutScratch(w, SlotCmpWork, d2)
	o := Scratch[other](w, SlotCmpWork)
	if o == nil {
		t.Fatal("mismatched type must allocate fresh")
	}
}

func TestZeroAllocSteadyState(t *testing.T) {
	w := New()
	// Warm up.
	warm := func() {
		a := w.Ints(500)
		b := Keys[uint64](w, 4096)
		m := w.Matrix(8, 256)
		w.PutMatrix(m)
		PutKeys(w, b)
		w.PutInts(a)
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Fatalf("steady-state arena traffic allocates %v times per run", n)
	}
}

func TestConcurrentUse(t *testing.T) {
	w := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := w.Ints(64 + g*100)
				for j := range a {
					a[j] = g
				}
				for _, v := range a {
					if v != g {
						t.Error("buffer shared across goroutines")
						return
					}
				}
				w.PutInts(a)
			}
		}(g)
	}
	wg.Wait()
}

func TestBudgetEnforced(t *testing.T) {
	w := New()
	w.SetBudget(int64(intSize * 1024))
	a := w.Ints(512) // within budget
	func() {
		defer func() {
			e := recover()
			be, ok := e.(*BudgetError)
			if !ok {
				t.Fatalf("over-budget acquisition recovered %v (%T), want *BudgetError", e, e)
			}
			if be.Budget != int64(intSize*1024) || be.InUse != int64(intSize*512) {
				t.Fatalf("BudgetError fields = %+v", be)
			}
			if be.Error() == "" {
				t.Fatal("empty error string")
			}
		}()
		w.Ints(1024) // 512 in use + 1024 > 1024: must panic
		t.Fatal("over-budget acquisition did not panic")
	}()
	w.PutInts(a)
	if got := w.AuxBytes(); got != 0 {
		t.Fatalf("AuxBytes = %d after balanced put, want 0", got)
	}
	if prev := w.SetBudget(0); prev != int64(intSize*1024) {
		t.Fatalf("SetBudget returned prev %d, want %d", prev, intSize*1024)
	}
	b := w.Ints(4096) // unlimited again
	w.PutInts(b)
}

func TestBudgetNilSafe(t *testing.T) {
	var w *Workspace
	if w.SetBudget(100) != 0 || w.Budget() != 0 {
		t.Fatal("nil workspace budget not inert")
	}
	w.ReconcileAux(0)
}

func TestReconcileAux(t *testing.T) {
	w := New()
	pre := int64(w.AuxBytes())
	// Simulate a contained failure: buffers checked out, then abandoned on
	// an unwind that never reaches the puts.
	_ = w.Ints(256)
	_ = w.Ints(512)
	if w.AuxBytes() == 0 {
		t.Fatal("acquisitions not metered")
	}
	w.ReconcileAux(pre)
	if got := w.AuxBytes(); int64(got) != pre {
		t.Fatalf("AuxBytes = %d after reconcile, want %d", got, pre)
	}
	// Reconcile must never raise the ledger.
	a := w.Ints(128)
	w.ReconcileAux(1 << 40)
	if w.AuxBytes() != uint64(intSize*128) {
		t.Fatalf("reconcile with a higher floor changed the ledger: %d", w.AuxBytes())
	}
	w.PutInts(a)
}
