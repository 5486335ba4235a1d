package part

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hard"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// testStreamedScatterOffsets asserts that every Algorithm 3 path that
// streams its full lines — the radix kernel, the generic reference and
// the code-driven kernel — writes exactly what Algorithm 1's plain stores
// write, at every destination offset 0..L-1 (so the streamed lines start
// at every element alignment a key column allows), across fanouts
// 2^1..2^12. The destination columns carry a line of guard slots on each
// side, which must come back untouched.
func testStreamedScatterOffsets[K interface{ ~uint32 | ~uint64 }](t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	w := ws.New()
	defer w.Close()
	l := LineTuples[K]()
	_, fanoutBits := kernelCases()
	guard := K(0x5a5a5a5a)
	for _, b := range fanoutBits {
		fn := pfunc.NewRadix[K](2, uint(2+b))
		ref := plainRadix[K]{shift: fn.Shift, mask: fn.Mask}
		for _, n := range []int{1, 17, 1000, 4096 + 7} {
			keys := testKeys[K](rng, n)
			vals := testKeys[K](rng, n)
			codes := make([]int32, n)
			hist := HistogramCodes(keys, fn, codes)
			for d := 0; d < l; d++ {
				starts, _ := Starts(hist)
				for p := range starts {
					starts[p] += l + d
				}
				column := func() []K {
					c := make([]K, n+3*l)
					for i := range c {
						c[i] = guard
					}
					return c
				}
				wantK, wantV := column(), column()
				NonInPlaceInCache(w, keys, vals, wantK[l+d:], wantV[l+d:], fn, hist, nil)
				paths := map[string]func(dstK, dstV []K){
					"radix": func(dstK, dstV []K) { NonInPlaceOutOfCache(w, keys, vals, dstK, dstV, fn, starts, nil) },
					"generic": func(dstK, dstV []K) {
						NonInPlaceOutOfCache(w, keys, vals, dstK, dstV, ref, starts, nil)
					},
					"codes": func(dstK, dstV []K) {
						buf := newLineBuffers[K](w, fn.Fanout())
						scatterChunkCodes(keys, vals, dstK, dstV, codes, &buf, w.Ints(fn.Fanout()), starts, nil)
						buf.release(w)
					},
				}
				for name, run := range paths {
					gotK, gotV := column(), column()
					run(gotK, gotV)
					if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
						t.Fatalf("%s fanout 2^%d n=%d offset %d: output differs from Algorithm 1's", name, b, n, d)
					}
				}
			}
		}
	}
}

func TestStreamedScatterOffsets32(t *testing.T) { testStreamedScatterOffsets[uint32](t) }
func TestStreamedScatterOffsets64(t *testing.T) { testStreamedScatterOffsets[uint64](t) }

// stopAfter is a partition function that raises its Ctl's stop flag (or,
// with fail set, panics) on its at-th call, in the middle of a scatter.
type stopAfter struct {
	plainRadix[uint32]
	ctl   *hard.Ctl
	calls *int
	at    int
	fail  bool
}

var errStopAfter = errors.New("stopAfter: injected")

func (s stopAfter) Partition(k uint32) int {
	*s.calls++
	if *s.calls == s.at {
		if s.fail {
			panic(errStopAfter)
		}
		s.ctl.Stop()
	}
	return s.plainRadix.Partition(k)
}

// TestStreamedScatterUnwind interrupts a streaming scatter in its second
// hard.CkptTuples sub-chunk, by a cancel (seen at the next sub-chunk's
// checkpoint) and by a panic in the partition function. Both unwind
// through scatterChunk's fence with the source untouched, and every line
// the scatter flushed before it stopped holds exactly what the completed
// scatter writes there.
func TestStreamedScatterUnwind(t *testing.T) {
	const n = 3*hard.CkptTuples + 5
	rng := rand.New(rand.NewSource(9))
	keys := testKeys[uint32](rng, n)
	vals := testKeys[uint32](rng, n)
	srcK, srcV := slices.Clone(keys), slices.Clone(vals)
	fn := plainRadix[uint32]{shift: 0, mask: 255}
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)
	wantK, wantV := make([]uint32, n), make([]uint32, n)
	NonInPlaceOutOfCache(nil, keys, vals, wantK, wantV, fn, starts, nil)
	for _, fail := range []bool{false, true} {
		ctl := hard.NewCtl(nil)
		calls := 0
		sa := stopAfter{plainRadix: fn, ctl: ctl, calls: &calls, at: hard.CkptTuples + 100, fail: fail}
		gotK, gotV := make([]uint32, n), make([]uint32, n)
		recovered := func() (e any) {
			defer func() { e = recover() }()
			NonInPlaceOutOfCache(nil, keys, vals, gotK, gotV, sa, starts, ctl)
			return nil
		}()
		if recovered == nil {
			t.Fatalf("fail=%v: the scatter ran to completion", fail)
		}
		if err, _ := recovered.(error); fail && !errors.Is(err, errStopAfter) {
			t.Fatalf("fail=%v: recovered %v, want the injected panic", fail, recovered)
		}
		if _, bailed := hard.BailCause(recovered); !fail && !bailed {
			t.Fatalf("recovered %v, want a cancellation bail", recovered)
		}
		if !slices.Equal(keys, srcK) || !slices.Equal(vals, srcV) {
			t.Fatalf("fail=%v: the source changed", fail)
		}
		written := 0
		for i := range gotK {
			if gotK[i] != 0 || gotV[i] != 0 {
				written++
				if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
					t.Fatalf("fail=%v: slot %d = (%d,%d), the completed scatter writes (%d,%d)",
						fail, i, gotK[i], gotV[i], wantK[i], wantV[i])
				}
			}
		}
		if written == 0 || written >= n {
			t.Fatalf("fail=%v: %d of %d slots written, want a partial output", fail, written, n)
		}
	}
}

// TestInCacheScatterCheckpoint pins Algorithm 1's checkpoints: a stopped
// Ctl interrupts a scatter of more than hard.CkptTuples tuples at the
// first sub-chunk boundary, leaving the source intact, and never one of
// at most hard.CkptTuples, which has no boundary.
func TestInCacheScatterCheckpoint(t *testing.T) {
	fn := pfunc.NewRadix[uint32](0, 8)
	for _, n := range []int{hard.CkptTuples, hard.CkptTuples + 1} {
		rng := rand.New(rand.NewSource(int64(n)))
		keys := testKeys[uint32](rng, n)
		vals := testKeys[uint32](rng, n)
		srcK := slices.Clone(keys)
		hist := Histogram(keys, fn)
		ctl := hard.NewCtl(nil)
		ctl.Stop()
		dstK, dstV := make([]uint32, n), make([]uint32, n)
		recovered := func() (e any) {
			defer func() { e = recover() }()
			NonInPlaceInCache(nil, keys, vals, dstK, dstV, fn, hist, ctl)
			return nil
		}()
		if _, bailed := hard.BailCause(recovered); bailed != (n > hard.CkptTuples) {
			t.Fatalf("n=%d: recovered %v, bail expected only above hard.CkptTuples", n, recovered)
		}
		if !slices.Equal(keys, srcK) {
			t.Fatalf("n=%d: the source changed", n)
		}
	}
}
