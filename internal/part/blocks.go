package part

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/pfunc"
)

// DefaultBlockTuples is the default block capacity for list-of-blocks
// partitioning: large enough to amortize sequential writes and list hops,
// small enough to bound external fragmentation (at most one non-full block
// per partition per thread).
const DefaultBlockTuples = 1024

// BlockStore is the backing storage of block-list partitioning: a primary
// region (the input array itself, for the in-place variant) providing
// len/B block slots, plus a scratch region providing the O(P) extra slots
// that the in-place variant needs while the read cursor frees primary
// space.
type BlockStore[K kv.Key] struct {
	B        int
	keys     []K // primary storage
	vals     []K
	scratchK []K
	scratchV []K
	nPrimary int // primary block slots
}

// NewBlockStore builds a store over primary storage keys/vals with
// extraSlots scratch block slots of capacity b each.
func NewBlockStore[K kv.Key](keys, vals []K, b, extraSlots int) *BlockStore[K] {
	if b < 1 {
		panic("part: block size must be positive")
	}
	return &BlockStore[K]{
		B:        b,
		keys:     keys,
		vals:     vals,
		scratchK: make([]K, extraSlots*b),
		scratchV: make([]K, extraSlots*b),
		nPrimary: len(keys) / b,
	}
}

// Slots returns the total number of block slots.
func (s *BlockStore[K]) Slots() int {
	return s.nPrimary + len(s.scratchK)/s.B
}

// PrimarySlots returns the number of slots backed by the primary arrays.
func (s *BlockStore[K]) PrimarySlots() int {
	return s.nPrimary
}

// Block returns the key and payload storage of slot id (full capacity B;
// callers track fill separately).
func (s *BlockStore[K]) Block(id int32) (keys, vals []K) {
	b := s.B
	if int(id) < s.nPrimary {
		o := int(id) * b
		return s.keys[o : o+b], s.vals[o : o+b]
	}
	o := (int(id) - s.nPrimary) * b
	return s.scratchK[o : o+b], s.scratchV[o : o+b]
}

// BlockRef identifies one block of a partition's list and its fill.
type BlockRef struct {
	ID  int32
	Len int32
}

// Blocks is the output of list-of-blocks partitioning: per partition, an
// ordered list of blocks whose concatenation is the partition's data.
type Blocks[K kv.Key] struct {
	Store  *BlockStore[K]
	Lists  [][]BlockRef
	Counts []int
}

// ForEach visits partition p's tuples block by block, in list order.
func (b *Blocks[K]) ForEach(p int, fn func(keys, vals []K)) {
	for _, ref := range b.Lists[p] {
		ks, vs := b.Store.Block(ref.ID)
		fn(ks[:ref.Len], vs[:ref.Len])
	}
}

// AppendTo copies partition p's tuples to dstK/dstV and returns the count.
func (b *Blocks[K]) AppendTo(p int, dstK, dstV []K) int {
	o := 0
	b.ForEach(p, func(ks, vs []K) {
		copy(dstK[o:], ks)
		copy(dstV[o:], vs)
		o += len(ks)
	})
	return o
}

// blockWriter appends tuples to per-partition block lists through
// cache-line buffers (the fast non-in-place out-of-cache inner loop of
// Algorithm 3, writing into blocks instead of a single segment).
type blockWriter[K kv.Key] struct {
	store   *BlockStore[K]
	alloc   func() int32
	l       int
	lists   [][]BlockRef
	cnt     []int
	fill    []int32 // fill of the current (last) block; -1 when no block yet
	bufK    []K
	bufV    []K
	bufN    []int32
	flushes uint64 // line write-backs, published to obs by the caller
}

func newBlockWriter[K kv.Key](store *BlockStore[K], p int, alloc func() int32) *blockWriter[K] {
	if store.B%LineTuples[K]() != 0 {
		panic(fmt.Sprintf("part: block size %d not a multiple of the line size %d", store.B, LineTuples[K]()))
	}
	l := LineTuples[K]()
	w := &blockWriter[K]{
		store: store,
		alloc: alloc,
		l:     l,
		lists: make([][]BlockRef, p),
		cnt:   make([]int, p),
		fill:  make([]int32, p),
		bufK:  make([]K, p*l),
		bufV:  make([]K, p*l),
		bufN:  make([]int32, p),
	}
	for i := range w.fill {
		w.fill[i] = -1
	}
	return w
}

func (w *blockWriter[K]) add(p int, k, v K) {
	n := w.bufN[p]
	w.bufK[p*w.l+int(n)] = k
	w.bufV[p*w.l+int(n)] = v
	n++
	// Record the buffered count (and the add) before the flush: flushLine
	// can panic at block allocation (store exhausted, injected fault), and
	// the in-place rollback reconstructs in-flight tuples from bufN — a
	// stale count would silently drop the tuple written above.
	w.bufN[p] = n
	w.cnt[p]++
	if int(n) == w.l {
		w.flushLine(p, w.l)
		w.bufN[p] = 0
	}
}

// flushLine moves m buffered tuples of partition p into its current block,
// allocating a fresh block when needed. Blocks are line-aligned (B % L == 0)
// so a line never spans blocks.
func (w *blockWriter[K]) flushLine(p, m int) {
	f := w.fill[p]
	if f < 0 || int(f) == w.store.B {
		id := w.alloc()
		w.lists[p] = append(w.lists[p], BlockRef{ID: id})
		w.fill[p] = 0
		f = 0
	}
	ks, vs := w.store.Block(w.lists[p][len(w.lists[p])-1].ID)
	copy(ks[f:int(f)+m], w.bufK[p*w.l:p*w.l+m])
	copy(vs[f:int(f)+m], w.bufV[p*w.l:p*w.l+m])
	w.fill[p] = f + int32(m)
	w.lists[p][len(w.lists[p])-1].Len = w.fill[p]
	w.flushes++
}

// drain flushes the partial lines and returns the finished lists.
func (w *blockWriter[K]) drain() ([][]BlockRef, []int) {
	for p := range w.bufN {
		if w.bufN[p] > 0 {
			// A partial line may straddle a block boundary; split it.
			m := int(w.bufN[p])
			room := 0
			if w.fill[p] >= 0 {
				room = w.store.B - int(w.fill[p])
			}
			if room > m {
				room = m
			}
			if room > 0 {
				w.flushLine(p, room)
				copy(w.bufK[p*w.l:], w.bufK[p*w.l+room:p*w.l+m])
				copy(w.bufV[p*w.l:], w.bufV[p*w.l+room:p*w.l+m])
				m -= room
				// Keep bufN truthful between the two flushes: the second
				// can panic at allocation, and the rollback must neither
				// double-count the already-flushed room tuples nor read
				// stale buffer slots.
				w.bufN[p] = int32(m)
			}
			if m > 0 {
				w.flushLine(p, m)
			}
			w.bufN[p] = 0
		}
	}
	return w.lists, w.cnt
}

// toBlocksChunk runs the in-place block partitioning loop over the tuple
// range [lo, hi) of the store's primary arrays. Primary block slots
// [lo/b, primEnd) belong to this chunk (lo must be b-aligned); scratch
// slots [scrLo, scrHi) are this chunk's private overflow. Returns the
// chunk's lists and counts.
//
// Failure contract: on any panic (block-store exhaustion, an injected
// fault, a cancellation bail from ctl) the chunk's input segment [lo, hi)
// is restored to a permutation of its original content before the panic
// propagates. The in-place scheme consumes the segment as it goes —
// primary block slots below the read cursor are overwritten — so the
// rollback re-collects every consumed tuple from where it actually lives:
// the unconsumed tail of the saved prefix, the chunk's finished blocks,
// and the writer's line buffers (whose bufN counts are kept truthful at
// every potential panic point; see blockWriter.add).
func toBlocksChunk[K kv.Key, F pfunc.Func[K]](store *BlockStore[K], keys, vals []K, lo, hi int, fn F, primEnd, scrLo, scrHi int, ctl *hard.Ctl) (lists [][]BlockRef, cnt []int) {
	fault.Inject(fault.SiteWorkerStart)
	ctl.Checkpoint()
	p := fn.Fanout()
	b := store.B

	savedLen := p * b
	if savedLen > hi-lo {
		savedLen = hi - lo
	}
	savedK := append([]K(nil), keys[lo:lo+savedLen]...)
	savedV := append([]K(nil), vals[lo:lo+savedLen]...)

	readPos := lo + savedLen
	savedIdx := 0
	nextPrimary := int32(lo / b)
	nextScratch := int32(scrLo)
	alloc := func() int32 {
		fault.Inject(fault.SiteBlockRefill)
		// Primary slots are safe once the read cursor has passed them.
		if int(nextPrimary) < primEnd && (int(nextPrimary)+1)*b <= readPos {
			s := nextPrimary
			nextPrimary++
			return s
		}
		if int(nextScratch) < scrHi {
			s := nextScratch
			nextScratch++
			return s
		}
		// Unreachable by the space invariant (see package tests).
		panic("part: in-place block store exhausted")
	}

	w := newBlockWriter(store, p, alloc)
	defer func() {
		e := recover()
		if e == nil {
			return
		}
		// Rebuild the consumed region [lo, readPos): every consumed tuple
		// is in exactly one of the writer's blocks, its line buffers, or
		// the saved prefix's unconsumed tail. Collect into a temporary
		// first — the blocks live inside [lo, readPos) itself.
		want := readPos - lo
		tmpK := make([]K, 0, want)
		tmpV := make([]K, 0, want)
		for q := 0; q < p; q++ {
			for _, ref := range w.lists[q] {
				ks, vs := store.Block(ref.ID)
				tmpK = append(tmpK, ks[:ref.Len]...)
				tmpV = append(tmpV, vs[:ref.Len]...)
			}
			n := int(w.bufN[q])
			tmpK = append(tmpK, w.bufK[q*w.l:q*w.l+n]...)
			tmpV = append(tmpV, w.bufV[q*w.l:q*w.l+n]...)
		}
		tmpK = append(tmpK, savedK[savedIdx:]...)
		tmpV = append(tmpV, savedV[savedIdx:]...)
		if len(tmpK) == want {
			copy(keys[lo:readPos], tmpK)
			copy(vals[lo:readPos], tmpV)
		}
		// Wrap here, on the panicking goroutine while its frames are still
		// live, so the captured stack shows the true panic site even when
		// this chunk runs on a plain contained goroutine.
		panic(hard.NewPanic(e))
	}()
	for readPos < hi {
		ctl.Checkpoint()
		chunkEnd := min(readPos+hard.CkptTuples, hi)
		for readPos < chunkEnd {
			k := keys[readPos]
			v := vals[readPos]
			readPos++
			w.add(fn.Partition(k), k, v)
		}
	}
	for savedIdx < len(savedK) {
		ctl.Checkpoint()
		chunkEnd := min(savedIdx+hard.CkptTuples, len(savedK))
		for savedIdx < chunkEnd {
			k, v := savedK[savedIdx], savedV[savedIdx]
			savedIdx++
			w.add(fn.Partition(k), k, v)
		}
	}
	lists, cnt = w.drain()
	publishScatter(hi-lo, w.flushes)
	return lists, cnt
}

// ToBlocksInPlaceParallel partitions keys/vals into block lists stored in
// the input arrays themselves (Section 3.2.3, in-place): each worker runs
// the in-place scheme on its own block-aligned chunk of the input
// (shared-nothing), and the per-partition block lists are concatenated in
// worker order. Within a chunk, the first P*B tuples are saved to private
// space, reading starts at tuple P*B, and by the time any block fills, the
// read cursor has advanced far enough that the freed prefix of the input
// can hold it; the saved tuples are appended through the same path at the
// end. Extra space is O(P*B) per worker: the saved prefix plus O(P)
// scratch block slots for the lists' tails that cannot fit in the n/B
// primary slots.
//
// Workers run under panic containment and checkpoint ctl. A failed chunk
// restores its own segment (see toBlocksChunk); this driver additionally
// rolls back the chunks that COMPLETED before a sibling failed — their
// segments have been consumed into blocks, some of which live in scratch
// space outside the input — so the whole input is a permutation again
// before the one failure re-raises on the caller.
func ToBlocksInPlaceParallel[K kv.Key, F pfunc.Func[K]](keys, vals []K, fn F, blockTuples, workers int, ctl *hard.Ctl) *Blocks[K] {
	if workers < 1 {
		workers = 1
	}
	p := fn.Fanout()
	b := blockTuples
	n := len(keys)
	nBlocks := n / b
	if workers > nBlocks && nBlocks > 0 {
		workers = nBlocks
	}
	if nBlocks == 0 {
		workers = 1
	}
	scratchPer := 2*p + 4
	store := NewBlockStore(keys, vals, b, workers*scratchPer)

	blockBounds := ChunkBounds(nBlocks, workers)
	chunkLo := func(t int) int { return blockBounds[t] * b }
	chunkHi := func(t int) int {
		if t == workers-1 {
			return n // the last chunk takes the unaligned tail
		}
		return blockBounds[t+1] * b
	}
	type result struct {
		lists  [][]BlockRef
		counts []int
	}
	results := make([]result, workers)
	defer func() {
		e := recover()
		if e == nil {
			return
		}
		for t := range results {
			if results[t].lists != nil {
				restoreChunkFromLists(store, keys, vals, chunkLo(t), chunkHi(t), results[t].lists)
			}
		}
		panic(e)
	}()
	g := hard.NewGroup(ctl)
	for t := 0; t < workers; t++ {
		g.Go(func() {
			lo, hi := chunkLo(t), chunkHi(t)
			scrLo := store.nPrimary + t*scratchPer
			sp := obs.Begin("to-blocks", "worker", t)
			lists, counts := toBlocksChunk(store, keys, vals, lo, hi, fn, blockBounds[t+1], scrLo, scrLo+scratchPer, ctl)
			sp.EndN(int64(hi - lo))
			results[t] = result{lists, counts}
		})
	}
	g.Wait()

	lists := make([][]BlockRef, p)
	counts := make([]int, p)
	for t := 0; t < workers; t++ {
		for q := 0; q < p; q++ {
			lists[q] = append(lists[q], results[t].lists[q]...)
			counts[q] += results[t].counts[q]
		}
	}
	return &Blocks[K]{Store: store, Lists: lists, Counts: counts}
}

// RestoreFromBlocks copies every tuple held in b's block lists back into
// keys/vals, in any order: the whole-array form of the per-chunk rollback.
// Sort drivers use it to make the input a permutation again when a failure
// strikes while tuples still live partly in scratch blocks (between block
// partitioning and the block shuffle). Best effort: it only writes when the
// lists account for exactly len(keys) tuples, so a caller with stale lists
// (e.g. mid-shuffle, after blocks started moving between slots) at worst
// restores nothing rather than corrupting the arrays further.
func RestoreFromBlocks[K kv.Key](b *Blocks[K], keys, vals []K) {
	restoreChunkFromLists(b.Store, keys, vals, 0, len(keys), b.Lists)
}

// restoreChunkFromLists copies a completed chunk's tuples — scattered
// across its finished blocks, partly in scratch space — back into the
// chunk's input segment [lo, hi), in any order. Best effort: it only
// writes when the lists account for exactly the segment's tuples.
func restoreChunkFromLists[K kv.Key](store *BlockStore[K], keys, vals []K, lo, hi int, lists [][]BlockRef) {
	want := hi - lo
	tmpK := make([]K, 0, want)
	tmpV := make([]K, 0, want)
	for _, list := range lists {
		for _, ref := range list {
			ks, vs := store.Block(ref.ID)
			tmpK = append(tmpK, ks[:ref.Len]...)
			tmpV = append(tmpV, vs[:ref.Len]...)
		}
	}
	if len(tmpK) == want {
		copy(keys[lo:hi], tmpK)
		copy(vals[lo:hi], tmpV)
	}
}
