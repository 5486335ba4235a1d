package extsort

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/ws"
)

// testOpt forces spilling at tiny sizes so unit tests exercise every
// phase of the pipeline on inputs that fit comfortably in memory.
func testOpt(t *testing.T) Options {
	return Options{
		TempDir:       t.TempDir(),
		SegmentTuples: 1 << 10,
		BucketBits:    3,
		LineTuples:    32,
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

// TestFaultContainment arms injection sites at depths that strike both
// phases and checks the containment contract: the panic carries the
// injected site, the input is restored to a permutation, and no temp file
// or ledger entry survives. Every bucket of this input (~2048 tuples)
// overflows its 1024-tuple segment, so the msb/recurse rows fire inside
// the in-place overflow sort, after its output range has been written.
func TestFaultContainment(t *testing.T) {
	cases := []struct {
		name  string
		site  fault.Site
		after int
	}{
		{"spill-first-flush", fault.SiteExtSpill, 0},
		{"spill-mid-formation", fault.SiteExtSpill, 50},
		{"overflow-sort-first", fault.SiteMSBRecurse, 0},
		{"overflow-sort-deep", fault.SiteMSBRecurse, 5},
		{"overflow-sort-later-bucket", fault.SiteMSBRecurse, 40},
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

// TestSealDetectsCorruption puts every key in one bucket, which then
// overflows its segment, flips one byte inside the bucket between
// formation and delivery, and sorts on one thread. The in-place path
// checks the bucket's seals before it writes the output range, so the run
// ends in ErrCorrupt with the input untouched, wherever the byte lies.
func TestSealDetectsCorruption(t *testing.T) {
	const n = 1 << 13
	for _, c := range []struct {
		name string
		at   func(size int64) int64 // the byte of the bucket to flip
	}{
		{"first-byte", func(int64) int64 { return 0 }},
		{"middle-byte", func(size int64) int64 { return size / 2 }},
		{"last-byte", func(size int64) int64 { return size - 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := testOpt(t)
			opt.Threads = 1
			r := rand.New(rand.NewSource(3))
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			for i := range keys {
				keys[i] = 7<<20 | uint64(r.Intn(1<<20)) // the top bucket's eighth of the domain
				vals[i] = uint64(i)
			}
			keys[0] = 8<<20 - 1 // the sampled maximum
			inK := append([]uint64(nil), keys...)
			hit := false
			readbackHook = func(f *os.File, d int, spans func(int) [][2]int64) {
				if d < 0 {
					hit = true
					flipAt(t, f, spans(7), c.at)
				}
			}
			defer func() { readbackHook = nil }()

			base := fault.TakeBaseline()
			st, err := Run(nil, keys, vals, nil, opt)
			if !hit {
				t.Fatal("the spill file was never read back")
			}
			if !errors.Is(err, ErrCorrupt) || strings.Contains(err.Error(), "restore failed") {
				t.Fatalf("err = %v, want ErrCorrupt with nothing lost", err)
			}
			if st.Buckets != 1 {
				t.Fatalf("%d buckets, want every key in one", st.Buckets)
			}
			for i := range keys {
				if keys[i] != inK[i] || vals[i] != uint64(i) {
					t.Fatalf("position %d holds (%d, %d), want the untouched input (%d, %d)", i, keys[i], vals[i], inK[i], i)
				}
			}
			base.Verify(t, nil, opt.TempDir)
		})
	}
}

// flipAt flips the byte at(size) of the bucket stored in spans (size is
// the bucket's byte count), mapping that offset through the spans.
func flipAt(t *testing.T, f *os.File, spans [][2]int64, at func(size int64) int64) {
	pos := spanPos(spans, at)
	b := []byte{0}
	if _, err := f.ReadAt(b, pos); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, pos); err != nil {
		t.Fatal(err)
	}
}

// spanPos maps byte at(size) of the bucket stored in spans, size being
// the bucket's byte count, to its offset in the spill file.
func spanPos(spans [][2]int64, at func(size int64) int64) int64 {
	var size int64
	for _, sp := range spans {
		size += sp[1]
	}
	pos := at(size)
	for _, sp := range spans {
		if pos < sp[1] {
			return sp[0] + pos
		}
		pos -= sp[1]
	}
	panic("extsort test: offset past the bucket's bytes")
}

// FuzzBucketBoundaries drives the full pipeline over fuzzer-chosen sizes,
// fanouts and worker counts around the segment boundary, where buckets
// switch between one-segment delivery and the in-place overflow sort.
func FuzzBucketBoundaries(f *testing.F) {
	f.Add(5000, 1024, 2, 1, uint64(1))
	f.Add(9000, 1024, 3, 4, uint64(99))
	f.Add(4097, 4096, 1, 2, uint64(7))
	f.Fuzz(func(t *testing.T, n, seg, bbits, threads int, seed uint64) {
		if n < 2 || n > 1<<15 || seg < 64 || seg > 1<<12 || n <= seg {
			t.Skip()
		}
		if bbits < 1 || bbits > 6 || threads < 1 || threads > 4 {
			t.Skip()
		}
		opt := Options{
			TempDir:       t.TempDir(),
			SegmentTuples: seg,
			BucketBits:    bbits,
			LineTuples:    16,
			Threads:       threads,
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
			t.Fatalf("n=%d seg=%d bbits=%d T=%d: spilled=%v sorted=%v",
				n, seg, bbits, threads, st.Spilled, kv.IsSorted(keys))
		}
	})
}

// damage applies one fuzz-chosen fault to a spill file at rest, at byte
// pos: flip it (mode 0), zero val+1 bytes from there (mode 1), or
// truncate the file there (mode 2).
func damage(t *testing.T, f *os.File, mode uint8, pos int64, val uint8) {
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
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

// FuzzSpillReadback damages the spill file between its write and its
// read back: anywhere in the file when delivery starts, or, with late on
// a shape whose two buckets each overflow their segment, inside the
// second of them just before it is read, when the first is already
// sorted in its output range. Every call must end in ErrCorrupt or in a
// sorted permutation of the input (the damage missed every byte read
// back), never in a panic, a wrong sort or a leaked temp file. After an
// error the input is a permutation again unless the error reports that
// the restore failed.
func FuzzSpillReadback(f *testing.F) {
	f.Add(false, false, uint8(0), uint32(100), uint8(1), uint64(1))
	f.Add(false, false, uint8(1), uint32(70000), uint8(200), uint64(2))
	f.Add(false, false, uint8(2), uint32(40000), uint8(0), uint64(3))
	f.Add(true, true, uint8(0), uint32(5000), uint8(0x80), uint64(4))
	f.Add(true, true, uint8(1), uint32(0), uint8(31), uint64(5))
	f.Add(true, true, uint8(2), uint32(70000), uint8(0), uint64(6))
	f.Add(true, false, uint8(0), uint32(90000), uint8(4), uint64(7))
	f.Add(true, false, uint8(2), uint32(20000), uint8(0), uint64(8))
	f.Fuzz(func(t *testing.T, overflow, late bool, mode uint8, at uint32, val uint8, seed uint64) {
		opt := testOpt(t)
		opt.BucketBits = 4 // 8192 uniform tuples fill each bucket to half a segment
		n := 1 << 13
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		r := rand.New(rand.NewSource(int64(seed)))
		for i := range keys {
			keys[i] = r.Uint64()
			if overflow {
				keys[i] %= 2 // buckets 0 and 8, of four segments each
			}
			vals[i] = uint64(i)
		}
		late = late && overflow
		want := kv.ChecksumPairs(keys, vals)
		hit := false
		readbackHook = func(f *os.File, d int, spans func(int) [][2]int64) {
			if hit || (late && d <= 0) || (!late && d >= 0) {
				return
			}
			hit = true
			fi, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			pos := int64(at) % max(fi.Size(), 1)
			if late {
				pos = spanPos(spans(d), func(size int64) int64 { return int64(at) % size })
			}
			damage(t, f, mode, pos, val)
		}
		defer func() { readbackHook = nil }()

		base := fault.TakeBaseline()
		_, err := Run(nil, keys, vals, nil, opt)
		if !hit {
			t.Fatal("the spill file was never read back")
		}
		switch {
		case err == nil:
			if !kv.IsSorted(keys) || kv.ChecksumPairs(keys, vals) != want {
				t.Fatal("damaged spill file: clean return with a wrong sort")
			}
		case !errors.Is(err, ErrCorrupt):
			t.Fatalf("damaged spill file: err = %v, want ErrCorrupt", err)
		case kv.ChecksumPairs(keys, vals) != want && !strings.Contains(err.Error(), "restore failed"):
			t.Fatalf("damaged spill file: input not a permutation and no failed restore reported: %v", err)
		}
		base.Verify(t, nil, opt.TempDir)
	})
}

// TestRunUnwindReportsLostBucket damages the second of two overflowing
// buckets just before delivery reads it, when the first is already in its
// output range, and unwinds Run from there. The restore cannot give the
// damaged bucket back, and the re-raised value must say so: a
// cancellation keeps its context cause with ErrCorrupt beside it, a
// contained panic carries both in its value. The first bucket's range is
// restored all the same, and nothing is left behind.
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
			readbackHook = func(f *os.File, d int, spans func(int) [][2]int64) {
				if d > 0 { // key 1's bucket; key 0's is sorted in its range
					flipAt(t, f, spans(d), func(size int64) int64 { return size - 1 })
					c.unwind()
				}
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
