// The sorter: per-run state, workspace-pooled so repeated external sorts
// reuse chain tables, extent chains, and (through the arena) every buffer.
// Spill-file lifecycle, the worker-phase runner, the bucket reader and the
// permutation-restore handler live here.

package extsort

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/tune"
	"repro/internal/ws"
)

// extent is one reserved region of the formation spill file: a chain
// grows extent by extent, so no pre-counting pass has to size it.
type extent struct {
	off  int64 // byte offset in the spill file
	used int64 // bytes written so far
	size int64 // reserved bytes
}

// bucketState is one formation worker's chain of one bucket: its
// write-combining line fill, its tuple count (a by-product of the scatter,
// not a pre-pass), its extents, and the CRC32C seal of every byte written
// to them. A bucket is the concatenation of its workers' chains.
type bucketState struct {
	count   int64
	line    int
	crc     uint32
	extents []extent
}

// castagnoli is the CRC32C table; hash/crc32 computes it with the SSE4.2
// instruction where the CPU has one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// worker is one worker's private state: its line slab during formation,
// its pair buffer during one-segment delivery, and its share of the
// traffic counters, folded into the run's Stats after each phase.
type worker[K kv.Key] struct {
	slab  []K
	pairs []K
	st    Stats
}

// sorter carries one external sort's state.
type sorter[K kv.Key] struct {
	w     *ws.Workspace
	opt   Options
	n     int
	pairB int64 // bytes per interleaved pair on disk

	keys, vals []K       // the run's columns
	ctl        *hard.Ctl // the run's control: the caller's, or own
	own        hard.Ctl  // stops sibling workers when the caller passes no control

	dir       string
	spillF    *os.File   // the bucket extent chains
	mu        sync.Mutex // guards the tail: formation workers reserve concurrently
	spillTail int64      // next unreserved byte of spillF
	extentB   int64      // formation extent reservation unit in bytes

	fanout int
	dp     digitPlan
	wk     []worker[K]
	chains []bucketState // len(wk) × fanout, worker-major: chains[t*fanout+d]
	starts []int         // bucket d's output range is [starts[d], starts[d+1])
	oneSeg []int         // buckets delivered in one piece, in key order
	next   atomic.Int64  // one-segment delivery cursor into oneSeg

	stage []K // the overflow path's staging buffer: one segment of pairs

	errMu sync.Mutex
	werr  error        // the first worker error of the running phase
	phase atomic.Int32 // phaseForm until delivery's first output write
	stats Stats
}

// getSorter returns a pooled sorter wired for this run: the small state
// reused from the workspace scratch slot; the buffers come from the arena
// phase by phase.
func getSorter[K kv.Key](w *ws.Workspace, n int, opt Options) *sorter[K] {
	s := ws.Scratch[sorter[K]](w, ws.SlotExtSort)
	s.w = w
	s.opt = opt
	s.n = n
	s.pairB = 2 * int64(kv.Width[K]()/8)
	s.extentB = int64(tune.ExtentTuples(n, opt.BucketBits, opt.LineTuples, opt.Threads)) * s.pairB
	s.phase.Store(phaseForm)
	s.stats = Stats{}
	s.spillTail = 0
	s.dir = ""
	s.spillF = nil
	s.werr = nil

	s.fanout = 1 << opt.BucketBits
	chains := opt.Threads * s.fanout
	if cap(s.chains) < chains {
		s.chains = make([]bucketState, chains)
	}
	s.chains = s.chains[:chains]
	for i := range s.chains {
		b := &s.chains[i]
		b.count, b.line, b.crc = 0, 0, 0
		b.extents = b.extents[:0]
	}
	if cap(s.starts) < s.fanout+1 {
		s.starts = make([]int, s.fanout+1)
	}
	s.starts = s.starts[:s.fanout+1]
	if cap(s.wk) < opt.Threads {
		s.wk = make([]worker[K], opt.Threads)
	}
	s.wk = s.wk[:opt.Threads]
	clear(s.wk)
	return s
}

// putSorter returns the buffers still out to the arena and parks the
// sorter.
func putSorter[K kv.Key](w *ws.Workspace, s *sorter[K]) {
	for t := range s.wk {
		ws.PutKeys(w, s.wk[t].slab)
		ws.PutKeys(w, s.wk[t].pairs)
	}
	clear(s.wk)
	s.releaseOverflow()
	s.keys, s.vals, s.ctl = nil, nil, nil
	s.w = nil
	ws.PutScratch(w, ws.SlotExtSort, s)
}

// holdOverflow checks the overflow path's staging buffer out of the
// arena, if not held yet. It is held only while a bucket is read, so the
// in-place sort that follows does not sit beside it; putSorter returns it
// when a read unwinds.
func (s *sorter[K]) holdOverflow() {
	if s.stage == nil {
		s.stage = ws.Keys[K](s.w, 2*s.opt.SegmentTuples)
	}
}

// releaseOverflow returns the staging buffer, if held.
func (s *sorter[K]) releaseOverflow() {
	ws.PutKeys(s.w, s.stage)
	s.stage = nil
}

// runPhase runs r on n workers and returns the first error a worker
// reported through fail. That failure stopped the siblings at their next
// checkpoint; the bail they raised is absorbed here, so the caller sees
// the error itself. A real worker panic, or a bail with no worker error
// behind it (a cancellation), unwinds as before.
func (s *sorter[K]) runPhase(n int, r ws.Runner) (err error) {
	s.werr = nil
	defer func() {
		if s.werr == nil {
			return
		}
		if p := recover(); p != nil {
			if _, ok := hard.BailCause(p); !ok {
				panic(p)
			}
		}
		err = s.werr
	}()
	ws.RunWorkersCtl(s.w, n, r, s.ctl)
	return nil
}

// fail records a worker's error (the first one wins) and stops its
// siblings.
func (s *sorter[K]) fail(err error) {
	s.errMu.Lock()
	if s.werr == nil {
		s.werr = err
	}
	s.errMu.Unlock()
	s.ctl.Stop()
}

// foldStats adds each worker's traffic counters into the run's stats and
// clears them.
func (s *sorter[K]) foldStats() {
	for t := range s.wk {
		st := &s.wk[t].st
		s.stats.FormationBytes += st.FormationBytes
		s.stats.FormationWrites += st.FormationWrites
		s.stats.SpillBytes += st.SpillBytes
		s.stats.ReadBytes += st.ReadBytes
		*st = Stats{}
	}
}

// open creates the per-run spill directory and its spill file,
// registering the file on the fault resource ledger.
func (s *sorter[K]) open() error {
	dir, err := os.MkdirTemp(s.opt.TempDir, "partsort-ext-")
	if err != nil {
		return &IOError{Op: "mkdir", Path: s.opt.TempDir, Err: err}
	}
	s.dir = dir
	name := dir + "/buckets.spill"
	if s.spillF, err = os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600); err != nil {
		return &IOError{Op: "create", Path: name, Err: err}
	}
	fault.AcquireResource(TempResource)
	obs.AddExtTempFiles(1)
	return nil
}

// reserve claims size bytes at the tail of the spill file against the
// disk budget and returns their offset.
func (s *sorter[K]) reserve(size int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opt.MaxSpillBytes > 0 && s.spillTail+size > s.opt.MaxSpillBytes {
		return 0, ioErr("reserve", s.spillF, fmt.Errorf("%w: %d reserved, +%d requested, budget %d",
			ErrDiskBudget, s.spillTail, size, s.opt.MaxSpillBytes))
	}
	off := s.spillTail
	s.spillTail += size
	return off, nil
}

// cleanup closes and removes the spill file and the run directory,
// releasing its ledger entry. Idempotent; called on every exit path.
func (s *sorter[K]) cleanup() {
	if s.spillF != nil {
		s.spillF.Close()
		os.Remove(s.spillF.Name())
		fault.ReleaseResource(TempResource)
		obs.AddExtTempFiles(-1)
		s.spillF = nil
	}
	if s.dir != "" {
		os.Remove(s.dir)
		s.dir = ""
	}
}

// restore rebuilds keys/vals as a permutation of the input from the
// phase-1 chains — the containment rollback once delivery has started
// overwriting the output ranges. It deliberately bypasses checkpoints and
// injection sites: it runs during an unwind, after every worker finished.
// It reads through a pair buffer the failed phase still holds, or a heap
// one, never a new arena buffer that a spent budget could refuse. A
// bucket that fails its read or a seal cannot give its tuples back;
// restore still walks every other bucket, so only that bucket's output
// range is wrong, and returns the first such failure.
func (s *sorter[K]) restore() error {
	buf := s.stage
	if buf == nil {
		buf = s.wk[0].pairs // held by worker 0 whenever one-segment delivery runs
	}
	if len(buf) < 2 {
		buf = make([]K, 2*min(s.opt.SegmentTuples, 1<<12))
	}
	var first error
	for d := 0; d < s.fanout; d++ {
		if err := s.readBucket(d, buf, true, nil); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// readBucket reads bucket d back through buf, len(buf)/2 pairs at a time,
// and checks its seals, counting its reads in st (nil: off the books).
// With into set it deinterleaves the tuples into the bucket's output
// range; without, it only checks the seals and writes nothing.
func (s *sorter[K]) readBucket(d int, buf []K, into bool, st *Stats) error {
	lo, hi := s.starts[d], s.starts[d+1]
	r := s.reader(d, st)
	for pos := lo; pos < hi; {
		cn := min(len(buf)/2, hi-pos)
		pairs := buf[:2*cn]
		if err := r.read(asBytes(pairs)[:int64(cn)*s.pairB]); err != nil {
			return err
		}
		if into {
			deinterleave(pairs, s.keys[pos:pos+cn], s.vals[pos:pos+cn])
		}
		pos += cn
	}
	return r.close()
}

// reader returns a reader over bucket d's chains, counting its reads in
// st (nil: off the books).
func (s *sorter[K]) reader(d int, st *Stats) bucketReader {
	return bucketReader{f: s.spillF, chains: s.chains[d:], stride: s.fanout, nch: len(s.wk), st: st}
}

// spans returns the byte ranges (offset, length) of the formation file
// that hold bucket d, in the order delivery reads them. The readback hook
// passes it to tests that damage one bucket wherever its extents landed.
func (s *sorter[K]) spans(d int) [][2]int64 {
	var out [][2]int64
	for t := range s.wk {
		for _, e := range s.chains[t*s.fanout+d].extents {
			out = append(out, [2]int64{e.off, e.used})
		}
	}
	return out
}

// bucketReader streams one bucket's bytes: each worker's chain in worker
// order, each chain's extents in order, folding them into a CRC32C that
// is checked against the chain's seal once the whole chain has been read.
type bucketReader struct {
	f      *os.File
	chains []bucketState // chain t of the bucket is chains[t*stride]
	stride int
	nch    int
	t, ei  int    // current chain and extent
	off    int64  // bytes consumed of the current extent
	crc    uint32 // CRC32C of the current chain's bytes read so far
	st     *Stats // nil during restore, which runs off the books
}

// read fills dst exactly, crossing extent and chain boundaries as needed
// and sealing each chain it finishes.
func (r *bucketReader) read(dst []byte) error {
	for len(dst) > 0 {
		if r.t >= r.nch {
			return ioErr("read", r.f, fmt.Errorf("%w: extent chains exhausted with %d bytes wanted", ErrCorrupt, len(dst)))
		}
		b := &r.chains[r.t*r.stride]
		if r.ei >= len(b.extents) {
			if err := r.seal(b); err != nil {
				return err
			}
			continue
		}
		e := &b.extents[r.ei]
		avail := e.used - r.off
		if avail <= 0 {
			r.ei++
			r.off = 0
			continue
		}
		n := min(int64(len(dst)), avail)
		if err := readAt(r.f, dst[:n], e.off+r.off); err != nil {
			return err
		}
		r.crc = crc32.Update(r.crc, castagnoli, dst[:n])
		obs.AddExtReadBytes(n)
		if r.st != nil {
			r.st.ReadBytes += n
		}
		r.off += n
		dst = dst[n:]
	}
	return nil
}

// seal compares the CRC32C of chain b's bytes with the one formation fed
// while writing them, and moves on to the next chain.
func (r *bucketReader) seal(b *bucketState) error {
	if r.crc != b.crc {
		return ioErr("seal", r.f, fmt.Errorf("%w: bucket CRC32C %08x, formation wrote %08x", ErrCorrupt, r.crc, b.crc))
	}
	r.t++
	r.ei, r.off, r.crc = 0, 0, 0
	return nil
}

// close seals the chains not sealed yet. The caller has read the
// bucket's whole count, so none of their bytes are left unread.
func (r *bucketReader) close() error {
	for r.t < r.nch {
		if err := r.seal(&r.chains[r.t*r.stride]); err != nil {
			return err
		}
	}
	return nil
}

// readAt fills dst from f at off. A spill file that ends before the bytes
// the sorter wrote there is corrupt (truncated), not a plain read error.
func readAt(f *os.File, dst []byte, off int64) error {
	_, err := f.ReadAt(dst, off)
	if errors.Is(err, io.EOF) {
		err = fmt.Errorf("%w: file ends before byte %d", ErrCorrupt, off+int64(len(dst)))
	}
	if err != nil {
		return ioErr("read", f, err)
	}
	return nil
}
