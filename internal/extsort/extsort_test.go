package extsort

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/hard"
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
			// Full lines, plus at most one partial line per bucket drained
			// by each of the Threads workers.
			maxWrites := int64(n/opt.LineTuples) + int64(opt.Threads<<opt.BucketBits)
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
		// Formation makes between n/L = 512 and 512 + Threads·fanout
		// flushes, 518 on this input; 522 lands the third case in the
		// writeSegment calls of delivery.
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
	s.holdOverflow()
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
	s.holdOverflow()
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

// damage applies one fuzz-chosen fault to a spill file at rest: flip the
// byte at at (mode 0), zero val+1 bytes from there (mode 1), or truncate
// the file there (mode 2). Offsets wrap modulo the file size.
func damage(t *testing.T, f *os.File, mode uint8, at uint32, val uint8) {
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		return
	}
	pos := int64(at) % fi.Size()
	switch mode % 3 {
	case 0:
		b := []byte{0}
		if _, err := f.ReadAt(b, pos); err != nil {
			t.Fatal(err)
		}
		b[0] ^= val | 1
		_, err = f.WriteAt(b, pos)
	case 1:
		_, err = f.WriteAt(make([]byte, min(int64(val)+1, fi.Size()-pos)), pos)
	case 2:
		err = f.Truncate(pos)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzSpillReadback damages spill data between its write and its first
// read back: the formation file when delivery starts, or, on a shape
// whose two buckets each overflow their segment, either file (the runs
// file before the first merge). Every call must end in ErrCorrupt or in a
// sorted permutation of the input (the damage missed every byte read
// back), never in a panic, a wrong sort or a leaked temp file. Damage to
// a sealed run is rolled back from the formation extents, so the input is
// then a permutation again; damage to a formation extent is too, unless
// the error reports that the restore failed.
func FuzzSpillReadback(f *testing.F) {
	f.Add(false, false, uint8(0), uint32(100), uint8(1), uint64(1))
	f.Add(false, false, uint8(1), uint32(70000), uint8(200), uint64(2))
	f.Add(false, false, uint8(2), uint32(40000), uint8(0), uint64(3))
	f.Add(true, true, uint8(0), uint32(5000), uint8(0x80), uint64(4))
	f.Add(true, true, uint8(1), uint32(0), uint8(31), uint64(5))
	f.Add(true, true, uint8(2), uint32(70000), uint8(0), uint64(6))
	f.Add(true, false, uint8(0), uint32(90000), uint8(4), uint64(7))
	f.Add(true, false, uint8(2), uint32(20000), uint8(0), uint64(8))
	f.Fuzz(func(t *testing.T, overflow, runs bool, mode uint8, at uint32, val uint8, seed uint64) {
		opt := testOpt(t)
		opt.BucketBits = 4 // 8192 uniform tuples fill each bucket to half a segment
		n := 1 << 13
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		r := rand.New(rand.NewSource(int64(seed)))
		for i := range keys {
			keys[i] = r.Uint64()
			if overflow {
				keys[i] %= 2 // two buckets of four segments each
			}
			vals[i] = uint64(i)
		}
		if overflow {
			opt.MergeWidth = 2 // four segments reduce through an intermediate round
		}
		runs = runs && overflow
		want := kv.ChecksumPairs(keys, vals)
		target := "buckets.spill"
		if runs {
			target = "runs.spill"
		}
		hit := false
		readbackHook = func(f *os.File, _ func(int) [][2]int64) {
			if !hit && filepath.Base(f.Name()) == target {
				hit = true
				damage(t, f, mode, at, val)
			}
		}
		defer func() { readbackHook = nil }()

		base := fault.TakeBaseline()
		_, err := Run(nil, keys, vals, nil, opt)
		if !hit {
			t.Fatalf("%s was never read back", target)
		}
		switch {
		case err == nil:
			if !kv.IsSorted(keys) || kv.ChecksumPairs(keys, vals) != want {
				t.Fatalf("damaged %s: clean return with a wrong sort", target)
			}
		case !errors.Is(err, ErrCorrupt):
			t.Fatalf("damaged %s: err = %v, want ErrCorrupt", target, err)
		case kv.ChecksumPairs(keys, vals) != want && (runs || !strings.Contains(err.Error(), "restore failed")):
			t.Fatalf("damaged %s: input not a permutation and no failed restore reported: %v", target, err)
		}
		base.Verify(t, nil, opt.TempDir)
	})
}

// TestRunUnwindReportsLostBucket damages the second of two overflowing
// buckets, then unwinds Run from inside delivery, after the first bucket's
// output was written (at its merge). The restore cannot give the damaged
// bucket back, and the re-raised value must say so: a cancellation keeps
// its context cause with ErrCorrupt beside it, a contained panic carries
// both in its value. The first bucket's range is restored all the same,
// and nothing is left behind.
func TestRunUnwindReportsLostBucket(t *testing.T) {
	for _, c := range []struct {
		name   string
		unwind func()
		check  func(t *testing.T, r any)
	}{
		{"cancel", func() { hard.Bail(context.Canceled) }, func(t *testing.T, r any) {
			cause, ok := hard.BailCause(r)
			if !ok || !errors.Is(cause, context.Canceled) || !errors.Is(cause, ErrCorrupt) ||
				!strings.Contains(cause.Error(), "permutation restore failed") {
				t.Fatalf("unwind value %v: want a bail whose cause is context.Canceled and ErrCorrupt, reporting the failed restore", r)
			}
		}},
		{"panic", func() { panic("injected") }, func(t *testing.T, r any) {
			pe, ok := r.(*hard.PanicError)
			if !ok || !errors.Is(pe, ErrCorrupt) || !strings.Contains(pe.Error(), "injected") ||
				!strings.Contains(pe.Error(), "permutation restore failed") {
				t.Fatalf("unwind value %v: want a PanicError naming the panic, wrapping ErrCorrupt and reporting the failed restore", r)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := testOpt(t)
			n := 1 << 13
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(2 * i / n)
				vals[i] = uint64(i)
			}
			var spill *os.File
			readbackHook = func(f *os.File, spans func(int) [][2]int64) {
				if filepath.Base(f.Name()) == "buckets.spill" {
					spill = f
					return
				}
				// The last byte of the top non-empty bucket, key 1's.
				var last [2]int64
				for d := range 1 << opt.BucketBits {
					if sp := spans(d); len(sp) > 0 {
						last = sp[len(sp)-1]
					}
				}
				if _, err := spill.WriteAt([]byte{0xff}, last[0]+last[1]-1); err != nil {
					t.Fatal(err)
				}
				c.unwind()
			}
			defer func() { readbackHook = nil }()

			base := fault.TakeBaseline()
			var r any
			func() {
				defer func() { r = recover() }()
				Run(nil, keys, vals, nil, opt)
			}()
			c.check(t, r)
			for i := range n / 2 {
				if keys[i] != 0 || vals[i] != uint64(i) {
					t.Fatalf("position %d holds (%d, %d) after the restore, want (0, %d)", i, keys[i], vals[i], i)
				}
			}
			base.Verify(t, nil, opt.TempDir)
		})
	}
}
