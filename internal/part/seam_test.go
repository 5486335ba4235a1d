package part

import (
	"context"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// stableReference is the serial oracle of the seam tests: the histogram
// plus a per-partition stable copy of the tuples.
func stableReference[K kv.Key, F pfunc.Func[K]](keys, vals []K, fn F) (hist []int, refK, refV []K) {
	hist = Histogram(keys, fn)
	starts, _ := Starts(hist)
	off := slices.Clone(starts)
	refK, refV = make([]K, len(keys)), make([]K, len(keys))
	for i, k := range keys {
		p := fn.Partition(k)
		refK[off[p]], refV[off[p]] = k, vals[i]
		off[p]++
	}
	return hist, refK, refV
}

// TestKernelsAcrossCheckpointSeams runs every checkpointed kernel on an
// input that crosses several hard.CkptTuples sub-chunk boundaries, both in
// one call and inside each of three worker chunks, with and without a
// workspace and with no ctl and a live never-cancelled one. Every result
// must equal the serial stable reference.
func TestKernelsAcrossCheckpointSeams(t *testing.T) {
	const n = 3*hard.CkptTuples + 17
	keys := gen.Uniform[uint32](n, 0, 23)
	vals := gen.RIDs[uint32](n)
	t.Run("radix8", func(t *testing.T) {
		seamKernels(t, keys, vals, pfunc.NewRadix[uint32](0, 8))
	})
	t.Run("hash256", func(t *testing.T) {
		seamKernels(t, keys, vals, pfunc.NewHash[uint32](256))
	})
}

func seamKernels[F pfunc.Func[uint32]](t *testing.T, keys, vals []uint32, fn F) {
	const workers = 3
	n := len(keys)
	hist, refK, refV := stableReference(keys, vals, fn)
	starts, _ := Starts(hist)
	refCodes := make([]int32, n)
	HistogramCodes(keys, fn, refCodes)
	chunks := ChunkBounds(n, workers)

	sameHists := func(t *testing.T, hists [][]int, bounds []int) {
		t.Helper()
		if !slices.Equal(bounds, chunks) {
			t.Fatalf("bounds = %v, want %v", bounds, chunks)
		}
		for w := range hists {
			if want := Histogram(keys[chunks[w]:chunks[w+1]], fn); !slices.Equal(hists[w], want) {
				t.Fatalf("worker %d histogram differs from the serial one", w)
			}
		}
	}
	sameOutput := func(t *testing.T, dstK, dstV []uint32) {
		t.Helper()
		sameTuples(t, "kernel vs stable reference", refK, refV, dstK, dstV)
	}

	kernels := []struct {
		name string
		run  func(t *testing.T, w *ws.Workspace, ctl *hard.Ctl)
	}{
		{"NonInPlaceOutOfCache", func(t *testing.T, w *ws.Workspace, ctl *hard.Ctl) {
			dstK, dstV := make([]uint32, n), make([]uint32, n)
			NonInPlaceOutOfCache(w, keys, vals, dstK, dstV, fn, starts, ctl)
			sameOutput(t, dstK, dstV)
		}},
		{"NonInPlaceInCache", func(t *testing.T, w *ws.Workspace, ctl *hard.Ctl) {
			dstK, dstV := make([]uint32, n), make([]uint32, n)
			NonInPlaceInCache(w, keys, vals, dstK, dstV, fn, hist, ctl)
			sameOutput(t, dstK, dstV)
		}},
		{"ParallelScatterCodes", func(t *testing.T, w *ws.Workspace, ctl *hard.Ctl) {
			dstK, dstV := make([]uint32, n), make([]uint32, n)
			ParallelScatter(w, keys, vals, dstK, dstV, fn, refCodes, [][]int{hist}, 0, nil, ctl)
			sameOutput(t, dstK, dstV)
		}},
		{"ParallelHistograms", func(t *testing.T, w *ws.Workspace, ctl *hard.Ctl) {
			hists, bounds := ParallelHistograms(w, keys, fn, workers, ctl)
			sameHists(t, hists, bounds)
			w.PutMatrix(hists)
			w.PutInts(bounds)
		}},
		{"ParallelHistogramsCodes", func(t *testing.T, w *ws.Workspace, ctl *hard.Ctl) {
			codes := make([]int32, n)
			hists, bounds := ParallelHistogramsCodes(w, keys, fn, codes, workers, ctl)
			sameHists(t, hists, bounds)
			if !slices.Equal(codes, refCodes) {
				t.Fatal("recorded codes differ from HistogramCodes")
			}
			w.PutMatrix(hists)
			w.PutInts(bounds)
		}},
		{"ParallelScatter", func(t *testing.T, w *ws.Workspace, ctl *hard.Ctl) {
			hists, bounds := ParallelHistograms(w, keys, fn, workers, ctl)
			dstK, dstV := make([]uint32, n), make([]uint32, n)
			ParallelScatter(w, keys, vals, dstK, dstV, fn, nil, hists, 0, nil, ctl)
			sameOutput(t, dstK, dstV)
			clear(dstK)
			ParallelScatter(w, keys, vals, dstK, dstV, fn, nil, hists, 0, bounds, ctl)
			sameOutput(t, dstK, dstV)
			w.PutMatrix(hists)
			w.PutInts(bounds)
		}},
		{"ParallelNonInPlace", func(t *testing.T, w *ws.Workspace, ctl *hard.Ctl) {
			dstK, dstV := make([]uint32, n), make([]uint32, n)
			got := ParallelNonInPlace(w, keys, vals, dstK, dstV, fn, workers, ctl)
			if !slices.Equal(got, hist) {
				t.Fatal("returned histogram differs from the serial one")
			}
			sameOutput(t, dstK, dstV)
		}},
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			for _, w := range []*ws.Workspace{nil, ws.New()} {
				for _, ctl := range []*hard.Ctl{nil, hard.NewCtl(ctx)} {
					k.run(t, w, ctl)
				}
				w.Close()
			}
		})
	}
}
