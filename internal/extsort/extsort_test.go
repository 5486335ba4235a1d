package extsort

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/kv"
	"repro/internal/mergetest"
	"repro/internal/ws"
)

// testOpt forces spilling at tiny sizes so unit tests exercise every
// phase of the pipeline on inputs that fit comfortably in memory.
func testOpt(t *testing.T) Options {
	return Options{
		TempDir:       t.TempDir(),
		SegmentTuples: 1 << 10,
		BucketBits:    3,
		MergeWidth:    4,
		LineTuples:    32,
		BlockTuples:   256,
		Threads:       2,
	}
}

// fillDist writes one of the key distributions the formation pass must
// survive: uniform, duplicate-heavy, all-equal, sorted, reverse.
func fillDist(dist string, keys, vals []uint64) {
	r := rand.New(rand.NewSource(0x5eed))
	for i := range keys {
		switch dist {
		case "uniform":
			keys[i] = r.Uint64()
		case "dup-heavy":
			keys[i] = uint64(r.Intn(8))
		case "all-equal":
			keys[i] = 42
		case "sorted":
			keys[i] = uint64(i)
		case "reverse":
			keys[i] = uint64(len(keys) - i)
		case "narrow":
			keys[i] = uint64(r.Intn(1 << 10))
		}
		vals[i] = uint64(i) + 1
	}
}

var dists = []string{"uniform", "dup-heavy", "all-equal", "sorted", "reverse", "narrow"}

// TestRunForcedSpill checks the whole pipeline at forced-spill settings:
// sorted output, pair multiset preserved, the formation pass's
// single-streaming-pass witness, and no leaked temp files.
func TestRunForcedSpill(t *testing.T) {
	for _, dist := range dists {
		t.Run(dist, func(t *testing.T) {
			opt := testOpt(t)
			n := 1 << 15 // 32 segments worth
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			fillDist(dist, keys, vals)
			want := kv.ChecksumPairs(keys, vals)

			base := fault.TakeBaseline()
			st, err := Run(nil, keys, vals, nil, opt)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !st.Spilled {
				t.Fatalf("expected a spilled run at n=%d seg=%d", n, opt.SegmentTuples)
			}
			if !kv.IsSorted(keys) {
				t.Fatalf("output not sorted")
			}
			if got := kv.ChecksumPairs(keys, vals); got != want {
				t.Fatalf("pair multiset changed: got %+v want %+v", got, want)
			}
			// Counting-free formation: the scatter writes each tuple exactly
			// once — one interleaved copy of the input, no histogram pass.
			if wantB := int64(n) * 16; st.FormationBytes != wantB {
				t.Fatalf("formation wrote %d bytes, want exactly one pass = %d", st.FormationBytes, wantB)
			}
			maxWrites := int64(n/opt.LineTuples) + int64(1<<opt.BucketBits)
			if st.FormationWrites > maxWrites {
				t.Fatalf("formation made %d writes for %d tuples; write-combining should cap it at %d",
					st.FormationWrites, n, maxWrites)
			}
			base.Verify(t, nil, opt.TempDir)
		})
	}
}

// TestRunUint32 exercises the 32-bit key instantiation end to end.
func TestRunUint32(t *testing.T) {
	opt := testOpt(t)
	n := 1 << 14
	keys := make([]uint32, n)
	vals := make([]uint32, n)
	r := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = r.Uint32()
		vals[i] = uint32(i)
	}
	want := kv.ChecksumPairs(keys, vals)
	base := fault.TakeBaseline()
	st, err := Run(nil, keys, vals, nil, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !st.Spilled || !kv.IsSorted(keys) || kv.ChecksumPairs(keys, vals) != want {
		t.Fatalf("uint32 spill run wrong: spilled=%v sorted=%v", st.Spilled, kv.IsSorted(keys))
	}
	if wantB := int64(n) * 8; st.FormationBytes != wantB {
		t.Fatalf("formation wrote %d bytes, want %d", st.FormationBytes, wantB)
	}
	base.Verify(t, nil, opt.TempDir)
}

// TestRunInMemoryShortcut checks that inputs at most one segment long
// never touch disk.
func TestRunInMemoryShortcut(t *testing.T) {
	opt := testOpt(t)
	keys := []uint64{3, 1, 2}
	vals := []uint64{30, 10, 20}
	base := fault.TakeBaseline()
	st, err := Run(nil, keys, vals, nil, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Spilled || st.SpillBytes != 0 {
		t.Fatalf("tiny input spilled: %+v", st)
	}
	if !kv.IsSorted(keys) || vals[0] != 10 {
		t.Fatalf("in-memory shortcut mis-sorted: %v %v", keys, vals)
	}
	base.Verify(t, nil, opt.TempDir)
}

// TestDiskBudget checks that crossing MaxSpillBytes surfaces as an
// IOError wrapping ErrDiskBudget, with the input multiset intact and no
// temp files left behind.
func TestDiskBudget(t *testing.T) {
	opt := testOpt(t)
	opt.MaxSpillBytes = 4 << 10 // far below one input copy
	n := 1 << 14
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	fillDist("uniform", keys, vals)
	want := kv.ChecksumPairs(keys, vals)
	base := fault.TakeBaseline()
	_, err := Run(nil, keys, vals, nil, opt)
	if !errors.Is(err, ErrDiskBudget) {
		t.Fatalf("err = %v, want ErrDiskBudget", err)
	}
	var ioe *IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("err = %T, want *IOError", err)
	}
	if kv.ChecksumPairs(keys, vals) != want {
		t.Fatalf("input multiset changed on budget failure")
	}
	base.Verify(t, nil, opt.TempDir)
}

// TestFaultContainment arms each extsort injection site at depths that
// strike every phase and checks the containment contract: the panic
// carries the injected site, the input is restored to a permutation, and
// no temp file or ledger entry survives.
func TestFaultContainment(t *testing.T) {
	cases := []struct {
		name  string
		site  fault.Site
		after int
	}{
		// Formation makes between n/L = 512 and 512+fanout flushes; 522
		// lands the third case in the writeSegment calls of delivery.
		{"spill-first-flush", fault.SiteExtSpill, 0},
		{"spill-mid-formation", fault.SiteExtSpill, 50},
		{"spill-segment-write", fault.SiteExtSpill, 522},
		{"merge-first-probe", fault.SiteExtMerge, 0},
		{"merge-deep", fault.SiteExtMerge, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := testOpt(t)
			n := 1 << 14
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			fillDist("uniform", keys, vals)
			want := kv.ChecksumPairs(keys, vals)

			base := fault.TakeBaseline()
			fault.Enable(tc.site, tc.after)
			fired := false
			func() {
				defer fault.Disable()
				defer func() {
					fired = fault.Fired()
					if r := recover(); r == nil {
						t.Fatalf("no panic; fired=%v", fired)
					}
				}()
				Run(nil, keys, vals, nil, opt)
			}()
			if !fired {
				t.Fatalf("site never fired")
			}
			if kv.ChecksumPairs(keys, vals) != want {
				t.Fatalf("input not a permutation after containment")
			}
			base.Verify(t, nil, opt.TempDir)
		})
	}
}

// TestWorkspaceReuse checks the steady-state claim: after a first run
// warms the arena, repeated external sorts acquire every buffer from the
// pool.
func TestWorkspaceReuse(t *testing.T) {
	w := ws.New()
	defer w.Close()
	opt := testOpt(t)
	n := 1 << 14
	keys := make([]uint64, n)
	vals := make([]uint64, n)

	fillDist("uniform", keys, vals)
	if _, err := Run(nil, keys, vals, w, opt); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}
	base := fault.TakeBaseline()
	_, missesBefore := w.Counters()
	fillDist("dup-heavy", keys, vals)
	if _, err := Run(nil, keys, vals, w, opt); err != nil {
		t.Fatalf("second run: %v", err)
	}
	_, missesAfter := w.Counters()
	if missesAfter != missesBefore {
		t.Fatalf("steady-state run missed the pool %d times", missesAfter-missesBefore)
	}
	base.Verify(t, w, opt.TempDir)
}

// TestSealDetectsCorruption flips a byte of a sealed run on disk and
// checks the merge reports ErrCorrupt instead of emitting wrong data.
func TestSealDetectsCorruption(t *testing.T) {
	opt := testOpt(t).clamped()
	s := getSorter[uint64](nil, 2048, opt)
	t.Cleanup(func() { s.cleanup(); putSorter(nil, s) })
	if err := s.open(); err != nil {
		t.Fatal(err)
	}
	ck := make([]uint64, 1024)
	cv := make([]uint64, 1024)
	for i := range ck {
		ck[i] = uint64(i)
		cv[i] = uint64(i)
	}
	sg, err := s.writeSegment(ck, cv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.runsF.WriteAt([]byte{0xff}, sg.off+100); err != nil {
		t.Fatal(err)
	}
	s.segs = append(s.segs[:0], sg)
	outK := make([]uint64, 1024)
	outV := make([]uint64, 1024)
	err = s.mergeRounds(nil, outK, outV)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted seal not detected: %v", err)
	}
}

// fileMerge adapts the file-backed merge to the shared conformance
// suite: each run is sealed as a segment, then mergeRounds drains them
// through the prefetching iterators into memory.
func fileMerge(runsK, runsV [][]uint64) ([]uint64, []uint64, error) {
	n := 0
	seg := 1
	for _, r := range runsK {
		n += len(r)
		if len(r) > seg {
			seg = len(r)
		}
	}
	opt := Options{
		SegmentTuples: seg,
		BucketBits:    1,
		MergeWidth:    4, // exercise multi-round reduction beyond fan-in 4
		LineTuples:    16,
		BlockTuples:   256,
		Threads:       1,
	}.clamped()
	s := getSorter[uint64](nil, n, opt)
	defer func() {
		s.cleanup()
		putSorter(nil, s)
	}()
	if err := s.open(); err != nil {
		return nil, nil, err
	}
	for i := range runsK {
		sg, err := s.writeSegment(runsK[i], runsV[i])
		if err != nil {
			return nil, nil, err
		}
		s.segs = append(s.segs, sg)
	}
	outK := make([]uint64, n)
	outV := make([]uint64, n)
	if err := s.mergeRounds(nil, outK, outV); err != nil {
		return nil, nil, err
	}
	return outK, outV, nil
}

// TestFileMergeConformance pins the file-backed merge to the same
// conformance table as the CMP lane merge, at every fan-in boundary up
// to the full MergeWidth cap (wider inputs reduce in rounds).
func TestFileMergeConformance(t *testing.T) {
	mergetest.Conformance(t, 16, fileMerge)
}

// FuzzBucketBoundaries drives the full pipeline over fuzzer-chosen sizes
// and option shapes around segment and fan-in boundaries.
func FuzzBucketBoundaries(f *testing.F) {
	f.Add(5000, 1024, 2, 2, uint64(1))
	f.Add(9000, 1024, 3, 4, uint64(99))
	f.Add(4097, 4096, 1, 2, uint64(7))
	f.Fuzz(func(t *testing.T, n, seg, bbits, width int, seed uint64) {
		if n < 2 || n > 1<<15 || seg < 64 || seg > 1<<12 || n <= seg {
			t.Skip()
		}
		if bbits < 1 || bbits > 6 || width < 2 || width > 8 {
			t.Skip()
		}
		opt := Options{
			TempDir:       t.TempDir(),
			SegmentTuples: seg,
			BucketBits:    bbits,
			MergeWidth:    width,
			LineTuples:    16,
			BlockTuples:   256,
			Threads:       1,
		}
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		r := rand.New(rand.NewSource(int64(seed)))
		for i := range keys {
			keys[i] = r.Uint64() >> (seed % 48)
			vals[i] = uint64(i)
		}
		want := kv.ChecksumPairs(keys, vals)
		st, err := Run(nil, keys, vals, nil, opt)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !st.Spilled || !kv.IsSorted(keys) || kv.ChecksumPairs(keys, vals) != want {
			t.Fatalf("n=%d seg=%d bbits=%d w=%d: spilled=%v sorted=%v",
				n, seg, bbits, width, st.Spilled, kv.IsSorted(keys))
		}
	})
}
