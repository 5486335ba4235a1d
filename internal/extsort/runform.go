// Run formation and delivery, each on the run's Threads workers.
// Formation is the counting-free streaming pass: worker t classifies its
// contiguous slice of the input by each key's top digit, buffers the tuple
// in its own write-combining line for that bucket, and flushes full lines
// into its own extent chain for the bucket, extents reserved on first
// touch; only the reservation against the file tail and the disk budget is
// shared. Delivery sorts the buckets that fit one segment T at a time, one
// worker and one thread each, from their read buffers straight into their
// output ranges, and then cuts the buckets skew pushed past a segment into
// sealed segments for the merge. Every chain is sealed by a CRC32C of the
// bytes formation wrote; delivery and restore recompute it on the way
// back, so a corrupt extent fails with ErrCorrupt before any of its
// bucket's tuples reach the output.

package extsort

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"

	"repro/internal/fault"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/sortalgo"
	"repro/internal/ws"
)

// sampleKeys bounds the digit-plan sample: a strided probe of at most
// this many keys estimates the key domain without a counting pass.
// Underestimates only cost balance — the top bucket absorbs the clamp —
// never correctness, because the digit stays monotone in the key.
const sampleKeys = 1024

// formRuns is phase 1: the single streaming pass over the input, each
// worker over its own slice through its own line slab. It ends with every
// bucket's output range known: the prefix sum of its chains' counts.
func (s *sorter[K]) formRuns() error {
	s.dp = planDigit(s.keys, s.opt.BucketBits)
	for t := range s.wk {
		s.wk[t].slab = ws.Keys[K](s.w, s.fanout*2*s.opt.LineTuples)
	}
	err := s.runPhase(len(s.wk), formRunner[K]{s})
	for t := range s.wk {
		ws.PutKeys(s.w, s.wk[t].slab)
		s.wk[t].slab = nil
	}
	s.foldStats()
	if err != nil {
		return err
	}
	pos := 0
	for d := 0; d < s.fanout; d++ {
		s.starts[d] = pos
		for t := range s.wk {
			pos += int(s.chains[t*s.fanout+d].count)
		}
		if pos > s.starts[d] {
			s.stats.Buckets++
		}
	}
	s.starts[s.fanout] = pos
	if pos != s.n {
		return ioErr("form", s.spillF, fmt.Errorf("%w: chains hold %d of %d tuples", ErrCorrupt, pos, s.n))
	}
	return nil
}

// formRunner is formation's pool task: task t scatters the t-th of
// len(wk) equal slices of the input.
type formRunner[K kv.Key] struct{ s *sorter[K] }

// RunTask implements ws.Runner.
func (r formRunner[K]) RunTask(t int) {
	s := r.s
	lo, hi := t*s.n/len(s.wk), (t+1)*s.n/len(s.wk)
	if err := s.formSlice(t, s.keys[lo:hi], s.vals[lo:hi]); err != nil {
		s.fail(err)
	}
}

// formSlice scatters one slice through worker t's slab into worker t's
// chains, then drains its partial lines. It checkpoints once per flushed
// line (formation only reads the input, so every point is safe): a
// per-tuple checkpoint would make T workers contend on the control's
// shared counter.
func (s *sorter[K]) formSlice(t int, keys, vals []K) error {
	wk := &s.wk[t]
	chains := s.chains[t*s.fanout : (t+1)*s.fanout]
	slab := wk.slab
	dp := s.dp
	L := s.opt.LineTuples
	for i, k := range keys {
		d := dp.digit(uint64(k))
		b := &chains[d]
		base := d*2*L + b.line*2
		slab[base] = k
		slab[base+1] = vals[i]
		b.line++
		if b.line == L {
			s.ctl.CheckpointNow()
			if err := s.flushLine(wk, b, d); err != nil {
				return err
			}
		}
	}
	for d := range chains {
		if chains[d].line > 0 {
			if err := s.flushLine(wk, &chains[d], d); err != nil {
				return err
			}
		}
	}
	return nil
}

// digitPlan maps keys onto the fanout (see planDigit); a value, so each
// formation worker keeps it in registers.
type digitPlan struct {
	shift  uint   // key >> shift,
	top    uint64 // clamped to top,
	scale  uint64 // times scale >> 32
	maxDig int
}

// planDigit scales the sampled key domain [0, max] onto the fanout, so
// every bucket covers an equal share of it whatever its size: keys are
// shifted down to at most 32 significant bits, then multiplied by
// fanout/(top+1) in 32.32 fixed point. A bare shift by the domain's bit
// length would give a domain just above a power of two only half the
// buckets, each filled to twice what the planner sized them for.
func planDigit[K kv.Key](keys []K, bucketBits int) digitPlan {
	stride := len(keys) / sampleKeys
	if stride < 1 {
		stride = 1
	}
	var max K
	for i := 0; i < len(keys); i += stride {
		if keys[i] > max {
			max = keys[i]
		}
	}
	var p digitPlan
	if b := bits.Len64(uint64(max)); b > 32 {
		p.shift = uint(b - 32)
	}
	p.top = uint64(max) >> p.shift
	fanout := uint64(1) << bucketBits
	p.scale = fanout << 32 / (p.top + 1)
	p.maxDig = int(fanout) - 1
	return p
}

// digit maps a key to its bucket. Keys above the sampled domain go to the
// top bucket; the map stays monotone, so concatenating sorted buckets in
// index order yields a sorted array. For x <= top, x·scale stays below
// fanout·2^32, so the product cannot overflow and the digit stays in range.
func (p digitPlan) digit(k uint64) int {
	x := k >> p.shift
	if x > p.top {
		return p.maxDig
	}
	return int(x * p.scale >> 32)
}

// flushLine spills worker wk's line for bucket d into its chain b,
// reserving a fresh extent when the current one cannot hold the line.
func (s *sorter[K]) flushLine(wk *worker[K], b *bucketState, d int) error {
	nb := int64(b.line) * s.pairB
	e, err := s.extentFor(b, nb)
	if err != nil {
		return err
	}
	fault.Inject(fault.SiteExtSpill)
	L := s.opt.LineTuples
	line := asBytes(wk.slab[d*2*L : d*2*L+b.line*2])[:nb]
	if _, err := s.spillF.WriteAt(line, e.off+e.used); err != nil {
		return ioErr("write", s.spillF, err)
	}
	b.crc = crc32.Update(b.crc, castagnoli, line)
	e.used += nb
	b.count += int64(b.line)
	b.line = 0
	wk.st.FormationBytes += nb
	wk.st.FormationWrites++
	wk.st.SpillBytes += nb
	obs.AddExtSpillBytes(nb)
	return nil
}

// extentFor returns the extent the next nb bytes of chain b go to,
// reserving file space on first touch (and on overflow) instead of
// pre-counting bucket sizes.
func (s *sorter[K]) extentFor(b *bucketState, nb int64) (*extent, error) {
	if n := len(b.extents); n > 0 {
		if e := &b.extents[n-1]; e.size-e.used >= nb {
			return e, nil
		}
	}
	size := max(s.extentB, nb)
	off, err := s.reserve(size, s.spillF)
	if err != nil {
		return nil, err
	}
	b.extents = append(b.extents, extent{off: off, size: size})
	return &b.extents[len(b.extents)-1], nil
}

// readbackHook, when non-nil, runs with a spill file just before the
// sorter first reads back what it wrote there: the formation file when
// delivery starts, the runs file before each merge. spans gives the byte
// ranges of the formation file that hold bucket d. Only tests set it, to
// damage spill data at rest.
var readbackHook func(f *os.File, spans func(d int) [][2]int64)

// deliver is phases 2 and 3. The buckets that fit one segment go to the
// workers one at a time; each is read back, CRC-checked and sorted from
// its read buffer into its output range on one thread, so a bucket sort
// never re-enters the pool and builds no range tree. The buckets skew
// pushed past one segment follow in key order on the chunk → seal →
// merge path, with the run's full thread count in the chunk sorts. Each
// phase holds its own buffers only while it runs. A bucket's seals are
// checked once all of it has been read and before its output range is
// written; the phase turns to phaseDeliver (the unwind then restores the
// input from the chains) only at the first such write, by any worker.
func (s *sorter[K]) deliver() error {
	if readbackHook != nil {
		readbackHook(s.spillF, s.spans)
	}
	seg := s.opt.SegmentTuples
	s.oneSeg = s.oneSeg[:0]
	widest := 0
	for d := 0; d < s.fanout; d++ {
		if c := s.starts[d+1] - s.starts[d]; c > 0 && c <= seg {
			s.oneSeg = append(s.oneSeg, d)
			widest = max(widest, c)
		}
	}
	if len(s.oneSeg) > 0 {
		nw := min(len(s.wk), len(s.oneSeg))
		for t := range nw {
			s.wk[t].pairs = ws.Keys[K](s.w, 2*widest)
		}
		s.next.Store(0)
		err := s.runPhase(nw, deliverRunner[K]{s})
		for t := range nw {
			ws.PutKeys(s.w, s.wk[t].pairs)
			s.wk[t].pairs = nil
		}
		s.foldStats()
		if err != nil {
			return err
		}
	}
	for d := 0; d < s.fanout; d++ {
		if s.starts[d+1]-s.starts[d] <= seg {
			continue
		}
		s.holdOverflow()
		if err := s.deliverOverflow(d); err != nil {
			return err
		}
	}
	s.releaseOverflow()
	return nil
}

// deliverRunner is one-segment delivery's pool task: each task takes the
// next undelivered bucket until none is left.
type deliverRunner[K kv.Key] struct{ s *sorter[K] }

// RunTask implements ws.Runner.
func (r deliverRunner[K]) RunTask(t int) {
	s := r.s
	for {
		i := int(s.next.Add(1)) - 1
		if i >= len(s.oneSeg) {
			return
		}
		s.ctl.CheckpointNow()
		if err := s.deliverBucket(&s.wk[t], s.oneSeg[i]); err != nil {
			s.fail(err)
			return
		}
	}
}

// deliverBucket reads bucket d into the worker's pair buffer, checks its
// seals, and sorts it from there into its output range on one thread:
// the pair buffer is the spare array of the bucket sort's out-of-place
// passes (sortalgo.MSBPairs).
func (s *sorter[K]) deliverBucket(wk *worker[K], d int) error {
	lo, hi := s.starts[d], s.starts[d+1]
	c := hi - lo
	pairs := wk.pairs[:2*c]
	r := s.reader(d, &wk.st)
	if err := r.read(asBytes(pairs)[:int64(c)*s.pairB]); err != nil {
		return err
	}
	if err := r.close(); err != nil {
		return err
	}
	s.phase.Store(phaseDeliver)
	sortalgo.MSBPairs(pairs, s.keys[lo:hi], s.vals[lo:hi], sortalgo.Options{Workspace: s.w, Ctl: s.ctl})
	return nil
}

// deliverOverflow cuts bucket d, larger than one segment, into sorted
// sealed segments and merges them into its output range. It starts with a
// checkpoint: every range delivered so far is complete.
func (s *sorter[K]) deliverOverflow(d int) error {
	s.ctl.CheckpointNow()
	lo, hi := s.starts[d], s.starts[d+1]
	c := hi - lo
	seg := s.opt.SegmentTuples
	r := s.reader(d, &s.stats)
	s.segs = s.segs[:0]
	for done := 0; done < c; {
		cn := min(c-done, seg)
		ck, cv := s.chunkK[:cn], s.chunkV[:cn]
		pairs := s.readBuf[:2*cn]
		if err := r.read(asBytes(pairs)[:int64(cn)*s.pairB]); err != nil {
			return err
		}
		deinterleave(pairs, ck, cv)
		sortChunk(s.ctl, ck, cv, s.w, s.opt)
		sg, err := s.writeSegment(ck, cv)
		if err != nil {
			return err
		}
		s.segs = append(s.segs, sg)
		done += cn
	}
	if err := r.close(); err != nil {
		return err
	}
	s.phase.Store(phaseDeliver)
	if readbackHook != nil {
		readbackHook(s.runsF, s.spans)
	}
	return s.mergeRounds(s.ctl, s.keys[lo:hi], s.vals[lo:hi])
}

// writeSegment seals one sorted chunk: checksum, interleave, append to
// the runs file in one streaming write.
func (s *sorter[K]) writeSegment(ck, cv []K) (segment, error) {
	nb := int64(len(ck)) * s.pairB
	off, err := s.reserve(nb, s.runsF)
	if err != nil {
		return segment{}, err
	}
	sg := segment{off: off, count: int64(len(ck)), sum: kv.ChecksumPairs(ck, cv)}
	pairs := s.readBuf[:2*len(ck)]
	interleave(pairs, ck, cv)
	fault.Inject(fault.SiteExtSpill)
	if _, err := s.runsF.WriteAt(asBytes(pairs)[:nb], off); err != nil {
		return segment{}, ioErr("write", s.runsF, err)
	}
	s.stats.RunsWritten++
	s.stats.SpillBytes += nb
	obs.AddExtRuns(1)
	obs.AddExtSpillBytes(nb)
	return sg, nil
}
