// The sorter: per-run state, workspace-pooled so repeated external sorts
// reuse bucket tables, extent chains, iterator shells, and (through the
// arena) every buffer. Temp-file lifecycle and the permutation-restore
// handler live here.

package extsort

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/fault"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/tune"
	"repro/internal/ws"
)

// extent is one reserved region of the formation spill file: a bucket
// chains extents as it grows, so no pre-counting pass has to size it.
type extent struct {
	off  int64 // byte offset in the spill file
	used int64 // bytes written so far
	size int64 // reserved bytes
}

// bucketState is one formation bucket: its write-combining line fill, its
// tuple count (a by-product of the scatter, not a pre-pass), its extent
// chain, and the CRC32C seal of every byte written to that chain.
type bucketState struct {
	count   int64
	line    int
	crc     uint32
	extents []extent
}

// castagnoli is the CRC32C table; hash/crc32 computes it with the SSE4.2
// instruction where the CPU has one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segment is one sealed sorted run: a contiguous pair region of the runs
// file plus the seal (count and order-independent pair checksum) verified
// when it is read back.
type segment struct {
	off   int64
	count int64
	sum   kv.Checksum
}

// sorter carries one external sort's state.
type sorter[K kv.Key] struct {
	w     *ws.Workspace
	opt   Options
	n     int
	pairB int64 // bytes per interleaved pair on disk

	dir       string
	spillF    *os.File // phase 1: bucket extent chains
	runsF     *os.File // phase 2+: sealed segments
	spillTail int64    // next unreserved byte of spillF
	runsTail  int64    // next unreserved byte of runsF
	extentB   int64    // formation extent reservation unit in bytes

	buckets []bucketState
	slab    []K    // fanout × line pairs: the write-combining buffers
	shift   uint   // digit plan (planDigit): key >> shift,
	top     uint64 // clamped to top,
	scale   uint64 // times scale >> 32
	maxDig  int

	readBuf []K // one segment of interleaved pairs
	chunkK  []K
	chunkV  []K

	segs, segsNext []segment     // merge-round scratch
	iters          []*segIter[K] // pooled iterator shells (channels persist)

	phase int
	stats Stats
}

// getSorter returns a pooled sorter wired for this run: the small state
// reused from the workspace scratch slot, the buffers from the arena.
func getSorter[K kv.Key](w *ws.Workspace, n int, opt Options) *sorter[K] {
	s := ws.Scratch[sorter[K]](w, ws.SlotExtSort)
	s.w = w
	s.opt = opt
	s.n = n
	s.pairB = 2 * int64(kv.Width[K]()/8)
	s.extentB = int64(tune.ExtentTuples(n, opt.BucketBits, opt.LineTuples)) * s.pairB
	s.phase = phaseForm
	s.stats = Stats{}
	s.spillTail, s.runsTail = 0, 0
	s.dir = ""
	s.spillF, s.runsF = nil, nil

	fanout := 1 << opt.BucketBits
	if cap(s.buckets) < fanout {
		s.buckets = make([]bucketState, fanout)
	}
	s.buckets = s.buckets[:fanout]
	for i := range s.buckets {
		b := &s.buckets[i]
		b.count, b.line, b.crc = 0, 0, 0
		b.extents = b.extents[:0]
	}
	s.slab = ws.Keys[K](w, fanout*2*opt.LineTuples)
	seg := opt.SegmentTuples
	s.readBuf = ws.Keys[K](w, 2*seg)
	s.chunkK = ws.Keys[K](w, seg)
	s.chunkV = ws.Keys[K](w, seg)
	return s
}

// putSorter returns the buffers to the arena and parks the sorter.
func putSorter[K kv.Key](w *ws.Workspace, s *sorter[K]) {
	ws.PutKeys(w, s.slab)
	ws.PutKeys(w, s.readBuf)
	ws.PutKeys(w, s.chunkK)
	ws.PutKeys(w, s.chunkV)
	s.slab, s.readBuf, s.chunkK, s.chunkV = nil, nil, nil, nil
	s.w = nil
	ws.PutScratch(w, ws.SlotExtSort, s)
}

// open creates the per-run spill directory and its two files, registering
// each on the fault resource ledger.
func (s *sorter[K]) open() error {
	dir, err := os.MkdirTemp(s.opt.TempDir, "partsort-ext-")
	if err != nil {
		return &IOError{Op: "mkdir", Path: s.opt.TempDir, Err: err}
	}
	s.dir = dir
	if s.spillF, err = s.create("buckets.spill"); err != nil {
		return err
	}
	if s.runsF, err = s.create("runs.spill"); err != nil {
		return err
	}
	return nil
}

// create opens one spill file and accounts for it.
func (s *sorter[K]) create(name string) (*os.File, error) {
	f, err := os.OpenFile(s.dir+"/"+name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, &IOError{Op: "create", Path: s.dir + "/" + name, Err: err}
	}
	fault.AcquireResource(TempResource)
	obs.AddExtTempFiles(1)
	return f, nil
}

// reserve claims size bytes of spill space against the disk budget;
// spillTail/runsTail advance at the call sites.
func (s *sorter[K]) reserve(size int64, f *os.File) error {
	if s.opt.MaxSpillBytes > 0 && s.spillTail+s.runsTail+size > s.opt.MaxSpillBytes {
		return ioErr("reserve", f, fmt.Errorf("%w: %d+%d reserved, +%d requested, budget %d",
			ErrDiskBudget, s.spillTail, s.runsTail, size, s.opt.MaxSpillBytes))
	}
	return nil
}

// cleanup closes and removes the spill files and the run directory,
// releasing their ledger entries. Idempotent; called on every exit path.
func (s *sorter[K]) cleanup() {
	s.stopIters()
	for _, f := range []**os.File{&s.spillF, &s.runsF} {
		if *f == nil {
			continue
		}
		(*f).Close()
		os.Remove((*f).Name())
		fault.ReleaseResource(TempResource)
		obs.AddExtTempFiles(-1)
		*f = nil
	}
	if s.dir != "" {
		os.Remove(s.dir)
		s.dir = ""
	}
}

// restore rebuilds keys/vals as a permutation of the input from the
// phase-1 bucket extents — the containment rollback once delivery has
// started overwriting the output ranges. It deliberately bypasses
// checkpoints and injection sites: it runs during an unwind. A bucket
// that fails its read or its CRC cannot give its tuples back; restore
// still walks every other bucket, so only that bucket's output range is
// wrong, and returns the first such failure.
func (s *sorter[K]) restore(keys, vals []K) error {
	var first error
	pos := 0
	for d := range s.buckets {
		b := &s.buckets[d]
		c := int(b.count)
		if pos+c > s.n {
			break
		}
		if err := s.restoreBucket(b, keys[pos:pos+c], vals[pos:pos+c]); err != nil && first == nil {
			first = err
		}
		pos += c
	}
	if first == nil && pos != s.n {
		first = fmt.Errorf("extsort: restore recovered %d of %d tuples", pos, s.n)
	}
	return first
}

// restoreBucket reads bucket b's tuples back into keys/vals (b.count
// long) and checks its seal.
func (s *sorter[K]) restoreBucket(b *bucketState, keys, vals []K) error {
	r := extentReader{f: s.spillF, exts: b.extents}
	for pos, rem := int64(0), b.count; rem > 0; {
		cn := min(int64(len(s.chunkK)), rem)
		pairs := s.readBuf[:2*cn]
		if err := r.read(asBytes(pairs)[:cn*s.pairB]); err != nil {
			return err
		}
		deinterleave(pairs, keys[pos:pos+cn], vals[pos:pos+cn])
		pos += cn
		rem -= cn
	}
	return r.checkSeal(b.crc)
}

// extentReader streams the used bytes of an extent chain in order,
// folding them into a CRC32C for checkSeal.
type extentReader struct {
	f    *os.File
	exts []extent
	ei   int
	off  int64  // bytes consumed of exts[ei]
	crc  uint32 // CRC32C of the bytes read so far
	st   *Stats // nil during restore, which runs off the books
}

// read fills dst exactly, crossing extent boundaries as needed.
func (r *extentReader) read(dst []byte) error {
	for len(dst) > 0 {
		if r.ei >= len(r.exts) {
			return ioErr("read", r.f, fmt.Errorf("%w: extent chain exhausted with %d bytes wanted", ErrCorrupt, len(dst)))
		}
		e := &r.exts[r.ei]
		avail := e.used - r.off
		if avail <= 0 {
			r.ei++
			r.off = 0
			continue
		}
		n := int64(len(dst))
		if n > avail {
			n = avail
		}
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

// checkSeal compares the CRC32C of the bytes read so far with want, the
// CRC formation fed while writing them.
func (r *extentReader) checkSeal(want uint32) error {
	if r.crc != want {
		return ioErr("seal", r.f, fmt.Errorf("%w: bucket CRC32C %08x, formation wrote %08x", ErrCorrupt, r.crc, want))
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
