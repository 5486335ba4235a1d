package part

import (
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// ChunkBounds splits n items into `workers` near-equal contiguous chunks
// and returns the workers+1 boundary offsets.
func ChunkBounds(n, workers int) []int {
	return ChunkBoundsInto(make([]int, workers+1), n)
}

// ChunkBoundsInto is ChunkBounds into a caller-provided (pooled) array of
// length workers+1.
func ChunkBoundsInto(bounds []int, n int) []int {
	workers := len(bounds) - 1
	if workers < 1 {
		panic("part: need at least one worker")
	}
	for t := 0; t <= workers; t++ {
		bounds[t] = t * n / workers
	}
	return bounds
}

// histRunner is the worker-pool driver of ParallelHistograms and
// ParallelHistogramsCodes (codes != nil): one object reused across Runs
// (via ws.Scratch) so a pass costs zero allocations.
type histRunner[K kv.Key, F pfunc.Func[K]] struct {
	keys   []K
	fn     F
	codes  []int32
	bounds []int
	hists  [][]int
	ctl    *hard.Ctl
}

func (r *histRunner[K, F]) RunTask(t int) {
	lo, hi := r.bounds[t], r.bounds[t+1]
	name := "histogram"
	if r.codes != nil {
		name = "histogram-codes"
	}
	sp := obs.Begin(name, "worker", t)
	h := r.hists[t]
	clear(h)
	// Only the codes path can use a batch lookup; asserting on the radix
	// path would box fn in every worker on every call.
	var bl BatchLookuper[K]
	batch := false
	if r.codes != nil {
		bl, batch = any(r.fn).(BatchLookuper[K])
	}
	for c := lo; c < hi; c += hard.CkptTuples {
		r.ctl.Checkpoint()
		e := min(c+hard.CkptTuples, hi)
		switch {
		case r.codes == nil:
			histogramAccum(h, r.keys[c:e], r.fn)
		case batch:
			histogramCodesBatchAccum(h, r.keys[c:e], bl, r.codes[c:e])
		default:
			for i, k := range r.keys[c:e] {
				p := r.fn.Partition(k)
				r.codes[c+i] = int32(p)
				h[p]++
			}
		}
	}
	sp.EndN(int64(hi - lo))
}

// ParallelHistograms computes one histogram per worker over that worker's
// input chunk. Workers synchronize only after the histograms are built —
// the single barrier of parallel non-in-place partitioning. Workers
// checkpoint ctl every hard.CkptTuples tuples (histogramming only reads the
// keys, so interruption anywhere is safe). The histogram matrix and the
// chunk bounds come from w: return them with PutMatrix and PutInts.
func ParallelHistograms[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, keys []K, fn F, workers int, ctl *hard.Ctl) (hists [][]int, bounds []int) {
	return ParallelHistogramsCodes(w, keys, fn, nil, workers, ctl)
}

// ParallelHistogramsWS is ParallelHistograms with no cancellation control.
// bench/ is its only caller.
func ParallelHistogramsWS[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, keys []K, fn F, workers int) (hists [][]int, bounds []int) {
	return ParallelHistograms(w, keys, fn, workers, nil)
}

// ParallelHistogramsCodes is ParallelHistograms that also records each
// tuple's partition code in codes (for range partitioning); a nil codes
// records nothing.
func ParallelHistogramsCodes[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, keys []K, fn F, codes []int32, workers int, ctl *hard.Ctl) (hists [][]int, bounds []int) {
	hists = w.Matrix(workers, fn.Fanout())
	bounds = ChunkBoundsInto(w.Ints(workers+1), len(keys))
	r := ws.Scratch[histRunner[K, F]](w, ws.SlotParHist)
	*r = histRunner[K, F]{keys: keys, fn: fn, codes: codes, bounds: bounds, hists: hists, ctl: ctl}
	ws.RunWorkersCtl(w, workers, r, ctl)
	*r = histRunner[K, F]{}
	ws.PutScratch(w, ws.SlotParHist, r)
	return hists, bounds
}

// MergeHistograms sums per-worker histograms into the global histogram.
func MergeHistograms(hists [][]int) []int {
	return MergeHistogramsInto(make([]int, len(hists[0])), hists)
}

// MergeHistogramsInto is MergeHistograms into a caller-provided (pooled,
// reused across passes) output of the histogram length, cleared here.
func MergeHistogramsInto(total []int, hists [][]int) []int {
	clear(total)
	for _, h := range hists {
		for p, c := range h {
			total[p] += c
		}
	}
	return total
}

// ThreadStartsInto turns per-worker histograms into per-worker output
// start offsets via the prefix sum of Section 3.2.1: partition p's output
// is a single segment at base+Σ_{q<p} total[q], and worker t's share of it
// starts after workers 0..t-1's shares. global receives the global
// per-partition start (including base). starts is workers x np, global has
// length np; both are fully overwritten.
func ThreadStartsInto(starts [][]int, global []int, hists [][]int, base int) ([][]int, []int) {
	workers := len(hists)
	np := len(hists[0])
	o := base
	for p := 0; p < np; p++ {
		global[p] = o
		for t := 0; t < workers; t++ {
			starts[t][p] = o
			o += hists[t][p]
		}
	}
	return starts, global
}

// scatterScratch is the coordinator-side scratch of one parallel buffered
// scatter: the per-worker output starts plus every worker's line buffers
// and write cursors. The coordinator acquires all of it before the fan-out
// and releases it after, so a call's arena demand does not depend on how
// the workers' lifetimes happen to overlap.
type scatterScratch[K kv.Key] struct {
	np     int
	starts [][]int
	global []int
	lines  lineBuffers[K] // workers*np partitions, worker-major
	off    []int          // workers*np write cursors, worker-major
}

func newScatterScratch[K kv.Key](w *ws.Workspace, hists [][]int, base int) scatterScratch[K] {
	workers, np := len(hists), len(hists[0])
	s := scatterScratch[K]{
		np:     np,
		starts: w.Matrix(workers, np),
		global: w.Ints(np),
		lines:  newLineBuffers[K](w, workers*np),
		off:    w.Ints(workers * np),
	}
	ThreadStartsInto(s.starts, s.global, hists, base)
	return s
}

// worker returns worker t's line buffers and write cursors.
func (s *scatterScratch[K]) worker(t int) (lineBuffers[K], []int) {
	return s.lines.share(t, s.np), s.off[t*s.np : (t+1)*s.np]
}

func (s *scatterScratch[K]) release(w *ws.Workspace) {
	s.lines.release(w)
	w.PutInts(s.off)
	w.PutMatrix(s.starts)
	w.PutInts(s.global)
}

// scatterRunner drives the data-movement half of parallel non-in-place
// partitioning on the pool: fn classifies each tuple, or codes, when set,
// holds its precomputed partition.
type scatterRunner[K kv.Key, F pfunc.Func[K]] struct {
	srcK, srcV, dstK, dstV []K
	fn                     F
	codes                  []int32
	bounds                 []int
	sc                     scatterScratch[K]
	ctl                    *hard.Ctl
}

func (r *scatterRunner[K, F]) RunTask(t int) {
	lo, hi := r.bounds[t], r.bounds[t+1]
	name := "scatter"
	if r.codes != nil {
		name = "scatter-codes"
	}
	sp := obs.Begin(name, "worker", t)
	buf, off := r.sc.worker(t)
	if r.codes != nil {
		scatterChunkCodes(r.srcK[lo:hi], r.srcV[lo:hi], r.dstK, r.dstV, r.codes[lo:hi], &buf, off, r.sc.starts[t], r.ctl)
	} else {
		scatterChunk(r.srcK[lo:hi], r.srcV[lo:hi], r.dstK, r.dstV, r.fn, &buf, off, r.sc.starts[t], r.ctl)
	}
	sp.EndN(int64(hi - lo))
}

// ParallelNonInPlace partitions srcK/srcV into a single shared segment of
// dstK/dstV using `workers` workers: per-worker histograms, one prefix-sum
// barrier, then each worker runs buffered non-in-place partitioning
// (Algorithm 3) on its chunk into its disjoint output shares. The output is
// stable. Returns the global histogram. Interruption or failure never
// touches src, so the caller's input stays intact by construction.
func ParallelNonInPlace[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, srcK, srcV, dstK, dstV []K, fn F, workers int, ctl *hard.Ctl) []int {
	hists, bounds := ParallelHistograms(w, srcK, fn, workers, ctl)
	ctl.Checkpoint()
	ParallelScatter(w, srcK, srcV, dstK, dstV, fn, nil, hists, 0, bounds, ctl)
	total := MergeHistograms(hists)
	w.PutMatrix(hists)
	w.PutInts(bounds)
	return total
}

// ParallelScatter is the data-movement half of ParallelNonInPlace: given
// per-worker histograms hists[t] of srcK[bounds[t]:bounds[t+1]], scatter
// the tuples into dst starting at offset base. bounds is the chunking
// ParallelHistograms returned with hists; nil means
// ChunkBounds(len(srcK), len(hists)). Callers that need the histogram and
// movement phases timed separately use ParallelHistograms +
// ParallelScatter.
//
// A nil codes evaluates fn per tuple. A non-nil codes is the column
// ParallelHistogramsCodes recorded over the same chunks, and the scatter
// reads each tuple's partition from it instead (wide-fanout range
// partitioning: scanning the short code array is sequential, Section
// 4.3.2); fn is then used for nothing.
//
// Workers checkpoint ctl every hard.CkptTuples tuples. Interruption leaves
// src intact (only disjoint dst shares are partially written), so the sort
// drivers' restore defers recover the permutation from src.
func ParallelScatter[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, srcK, srcV, dstK, dstV []K, fn F, codes []int32, hists [][]int, base int, bounds []int, ctl *hard.Ctl) {
	workers := len(hists)
	chunks := bounds
	if chunks == nil {
		chunks = ChunkBoundsInto(w.Ints(workers+1), len(srcK))
	}
	r := ws.Scratch[scatterRunner[K, F]](w, ws.SlotScatter)
	*r = scatterRunner[K, F]{srcK: srcK, srcV: srcV, dstK: dstK, dstV: dstV, fn: fn, codes: codes, bounds: chunks, sc: newScatterScratch[K](w, hists, base), ctl: ctl}
	ws.RunWorkersCtl(w, workers, r, ctl)
	r.sc.release(w)
	*r = scatterRunner[K, F]{}
	ws.PutScratch(w, ws.SlotScatter, r)
	if bounds == nil {
		w.PutInts(chunks)
	}
}

// ParallelScatterWS is ParallelScatter over ChunkBounds chunks with no
// codes column and no cancellation control. bench/ is its only caller.
func ParallelScatterWS[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, srcK, srcV, dstK, dstV []K, fn F, hists [][]int, base int) {
	ParallelScatter(w, srcK, srcV, dstK, dstV, fn, nil, hists, base, nil, nil)
}

// inplaceChunkRunner drives shared-nothing in-place partitioning on the pool.
type inplaceChunkRunner[K kv.Key, F pfunc.Func[K]] struct {
	keys, vals []K
	fn         F
	bounds     []int
	hists      [][]int
	np         int
	lines      lineBuffers[K] // workers*np partitions, worker-major
	cursors    []int          // workers*4*np cursors, worker-major
}

func (r *inplaceChunkRunner[K, F]) RunTask(t int) {
	lo, hi := r.bounds[t], r.bounds[t+1]
	sp := obs.Begin("inplace-chunk", "worker", t)
	buf := r.lines.share(t, r.np)
	inPlaceOutOfCache(r.keys[lo:hi], r.vals[lo:hi], r.fn, r.hists[t], &buf, r.cursors[4*t*r.np:4*(t+1)*r.np])
	sp.EndN(int64(hi - lo))
}

// ParallelInPlaceSharedNothing runs in-place out-of-cache partitioning
// (Algorithm 4) on `workers` contiguous chunks independently, producing T
// contiguous segments per partition — acceptable for recursive sorts, and
// the only way to parallelize in-place partitioning with coarse
// synchronization (Section 3.2.2). It returns the per-worker histograms and
// chunk bounds so callers can locate each worker's segments; both come
// from w (PutMatrix/PutInts when done).
func ParallelInPlaceSharedNothing[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, keys, vals []K, fn F, workers int) ([][]int, []int) {
	hists, bounds := ParallelHistograms(w, keys, fn, workers, nil)
	np := fn.Fanout()
	r := ws.Scratch[inplaceChunkRunner[K, F]](w, ws.SlotInPlaceChunk)
	*r = inplaceChunkRunner[K, F]{keys: keys, vals: vals, fn: fn, bounds: bounds, hists: hists, np: np,
		lines: newLineBuffers[K](w, workers*np), cursors: w.Ints(4 * workers * np)}
	ws.RunWorkers(w, workers, r)
	r.lines.release(w)
	w.PutInts(r.cursors)
	*r = inplaceChunkRunner[K, F]{}
	ws.PutScratch(w, ws.SlotInPlaceChunk, r)
	return hists, bounds
}
