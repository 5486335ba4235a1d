// The file-backed W-way merge: sealed segments are drained through
// double-buffered iterators whose prefetch goroutines read the next block
// while the merge consumes the current one, so disk latency hides behind
// merge compute. Fan-in beyond MergeWidth merges in rounds, appending
// intermediate segments to the runs file.

package extsort

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/ws"
)

// mergeStride is how many emitted tuples pass between checkpoint /
// injection probes inside the merge loop.
const mergeStride = 1024

// ioBlock is one prefetched block handed from a prefetcher to the merge.
type ioBlock[K kv.Key] struct {
	buf []K // interleaved pairs
	n   int // pairs in buf; 0 marks end of segment
	err error
}

// segIter drains one sealed segment through a double-buffered prefetch
// pipeline. The shell (channels included) is pooled on the sorter and
// reused across merges; buffers are claimed from the arena per merge.
type segIter[K kv.Key] struct {
	filled chan ioBlock[K]
	free   chan []K
	done   chan struct{}
	wg     sync.WaitGroup
	ioNs   atomic.Int64

	w       *ws.Workspace
	buf     []K // arena slab backing the two prefetch buffers
	started bool

	cur          []K // block being drained
	pos, curN    int // pair cursor and pair count of cur
	headK, headV K
	eof          bool
	sum          kv.Checksum
	want         segment
	pairB        int64
	st           *Stats
}

// start arms the iterator on one segment and launches its prefetcher.
func (it *segIter[K]) start(s *sorter[K], sg segment) {
	block := s.opt.BlockTuples
	it.w = s.w
	it.buf = ws.Keys[K](s.w, 4*block)
	it.done = make(chan struct{})
	it.cur, it.pos, it.curN = nil, 0, 0
	it.eof = false
	it.sum = kv.Checksum{}
	it.want = sg
	it.pairB = s.pairB
	it.st = &s.stats
	it.started = true
	it.free <- it.buf[:2*block]
	it.free <- it.buf[2*block : 4*block]

	f, pairB := s.runsF, s.pairB
	it.wg.Add(1)
	go func() {
		defer it.wg.Done()
		off := sg.off
		rem := sg.count
		// The first block is small so the merge's priming wait — the one
		// read no compute can hide — ends quickly; the pipeline then runs
		// at full block size.
		ramp := int64(block / 8)
		if ramp < 64 {
			ramp = 64
		}
		for rem > 0 {
			var b []K
			select {
			case b = <-it.free:
			case <-it.done:
				return
			}
			np := int64(block)
			if ramp > 0 {
				np, ramp = ramp, 0
			}
			if np > rem {
				np = rem
			}
			nb := np * pairB
			t0 := time.Now()
			err := readAt(f, asBytes(b)[:nb], off)
			it.ioNs.Add(int64(time.Since(t0)))
			if err == nil {
				obs.AddExtReadBytes(nb)
			}
			select {
			case it.filled <- ioBlock[K]{buf: b, n: int(np), err: err}:
			case <-it.done:
				return
			}
			if err != nil {
				return
			}
			off += nb
			rem -= np
		}
		select {
		case it.filled <- ioBlock[K]{}:
		case <-it.done:
		}
	}()
}

// stop shuts the prefetcher down, drains the channels so the shell is
// clean for reuse, returns the buffers, and banks the prefetcher's read
// time. Idempotent.
func (it *segIter[K]) stop() {
	if !it.started {
		return
	}
	close(it.done)
	it.wg.Wait()
	for {
		select {
		case <-it.filled:
			continue
		default:
		}
		break
	}
	for {
		select {
		case <-it.free:
			continue
		default:
		}
		break
	}
	if it.st != nil {
		it.st.IONs += it.ioNs.Swap(0)
	}
	ws.PutKeys(it.w, it.buf)
	it.buf, it.cur, it.w = nil, nil, nil
	it.st = nil
	it.started = false
}

// refill swaps in the next prefetched block, measuring only the time the
// merge actually had to wait for it — time the prefetcher hid behind
// compute does not count as a stall.
func (it *segIter[K]) refill(f *os.File) error {
	if it.cur != nil {
		it.free <- it.cur
		it.cur = nil
	}
	var blk ioBlock[K]
	select {
	case blk = <-it.filled:
		it.st.BlocksReady++
	default:
		t0 := time.Now()
		blk = <-it.filled
		it.st.StallNs += int64(time.Since(t0))
		it.st.BlocksStalled++
	}
	if blk.err != nil {
		return blk.err
	}
	if blk.n == 0 {
		it.eof = true
		if it.sum != it.want.sum {
			return ioErr("seal", f, fmt.Errorf("%w: drained %d pairs (want %d), checksum mismatch %v",
				ErrCorrupt, it.sum.Count, it.want.count, it.sum != it.want.sum))
		}
		return nil
	}
	it.st.ReadBytes += int64(blk.n) * it.pairB
	it.cur = blk.buf
	it.pos, it.curN = 0, blk.n
	return nil
}

// next loads the segment's next pair into headK/headV, folding it into
// the running seal checksum; eof is set (after seal verification) when
// the segment is drained.
func (it *segIter[K]) next(f *os.File) error {
	for it.cur == nil || it.pos >= it.curN {
		if err := it.refill(f); err != nil {
			return err
		}
		if it.eof {
			return nil
		}
	}
	it.headK = it.cur[2*it.pos]
	it.headV = it.cur[2*it.pos+1]
	it.pos++
	it.sum.AddPair(uint64(it.headK), uint64(it.headV))
	return nil
}

// itersFor returns w pooled iterator shells, growing the pool as needed.
func (s *sorter[K]) itersFor(w int) []*segIter[K] {
	for len(s.iters) < w {
		s.iters = append(s.iters, &segIter[K]{
			filled: make(chan ioBlock[K], 2),
			free:   make(chan []K, 2),
		})
	}
	return s.iters[:w]
}

// stopIters shuts down every pooled iterator; safe to call at any time.
func (s *sorter[K]) stopIters() {
	for _, it := range s.iters {
		it.stop()
	}
}

// mergeRounds reduces s.segs to the sorted output range: while the fan-in
// exceeds MergeWidth, groups of W segments merge into fresh intermediate
// segments; the final round merges straight into outK/outV.
func (s *sorter[K]) mergeRounds(ctl *hard.Ctl, outK, outV []K) error {
	W := s.opt.MergeWidth
	for len(s.segs) > W {
		s.segsNext = s.segsNext[:0]
		for i := 0; i < len(s.segs); i += W {
			j := i + W
			if j > len(s.segs) {
				j = len(s.segs)
			}
			group := s.segs[i:j]
			if len(group) == 1 {
				s.segsNext = append(s.segsNext, group[0])
				continue
			}
			sg, err := s.mergeToSegment(ctl, group)
			if err != nil {
				return err
			}
			s.segsNext = append(s.segsNext, sg)
		}
		s.segs, s.segsNext = s.segsNext, s.segs
	}
	pos := 0
	err := s.mergeGroup(ctl, s.segs, func(k, v K) error {
		outK[pos], outV[pos] = k, v
		pos++
		return nil
	})
	if err != nil {
		return err
	}
	if pos != len(outK) {
		return ioErr("merge", s.runsF, fmt.Errorf("%w: merged %d of %d tuples", ErrCorrupt, pos, len(outK)))
	}
	return nil
}

// mergeToSegment merges one group into a fresh sealed segment appended to
// the runs file (intermediate rounds; space is not reclaimed and counts
// against the disk budget).
func (s *sorter[K]) mergeToSegment(ctl *hard.Ctl, group []segment) (segment, error) {
	out := segOut[K]{s: s, off: s.runsTail}
	if err := s.mergeGroup(ctl, group, out.emit); err != nil {
		return segment{}, err
	}
	return out.finish()
}

// mergeGroup is the min-scan core: prime every iterator, repeatedly emit
// the smallest head, refilling through the prefetch pipeline. The scan
// over at most MergeWidth heads mirrors the CMP lane merge's
// min-across-live loop, generalized from in-cache lanes to file-backed
// runs.
func (s *sorter[K]) mergeGroup(ctl *hard.Ctl, group []segment, emit func(k, v K) error) error {
	w := len(group)
	if w > s.stats.MaxFanIn {
		s.stats.MaxFanIn = w
	}
	s.stats.MergeRounds++
	obs.ObserveExtMergeFanin(w)
	iters := s.itersFor(w)
	defer s.stopIters()
	for i := range iters {
		iters[i].start(s, group[i])
	}
	for _, it := range iters {
		if err := it.next(s.runsF); err != nil {
			return err
		}
	}
	steps := 0
	for {
		best := -1
		var bk K
		for i, it := range iters {
			if it.eof {
				continue
			}
			if best < 0 || it.headK < bk {
				best = i
				bk = it.headK
			}
		}
		if best < 0 {
			return nil
		}
		it := iters[best]
		if err := emit(it.headK, it.headV); err != nil {
			return err
		}
		if err := it.next(s.runsF); err != nil {
			return err
		}
		steps++
		if steps%mergeStride == 0 {
			ctl.Checkpoint()
			fault.Inject(fault.SiteExtMerge)
		}
	}
}

// segOut accumulates merge output into the sorter's pair buffer and
// streams it to the runs file, sealing the whole range as one segment.
type segOut[K kv.Key] struct {
	s     *sorter[K]
	off   int64
	i     int // pairs buffered
	count int64
	sum   kv.Checksum
}

// emit appends one pair, flushing when the buffer holds a full segment's
// worth of pairs.
func (o *segOut[K]) emit(k, v K) error {
	s := o.s
	s.readBuf[2*o.i] = k
	s.readBuf[2*o.i+1] = v
	o.i++
	o.sum.AddPair(uint64(k), uint64(v))
	if 2*(o.i+1) > len(s.readBuf) {
		return o.flush()
	}
	return nil
}

// flush streams the buffered pairs to the runs file.
func (o *segOut[K]) flush() error {
	if o.i == 0 {
		return nil
	}
	s := o.s
	nb := int64(o.i) * s.pairB
	off, err := s.reserve(nb, s.runsF)
	if err != nil {
		return err
	}
	if _, err := s.runsF.WriteAt(asBytes(s.readBuf)[:nb], off); err != nil {
		return ioErr("write", s.runsF, err)
	}
	o.count += int64(o.i)
	s.stats.SpillBytes += nb
	obs.AddExtSpillBytes(nb)
	o.i = 0
	return nil
}

// finish flushes the tail and seals the merged segment.
func (o *segOut[K]) finish() (segment, error) {
	if err := o.flush(); err != nil {
		return segment{}, err
	}
	o.s.stats.RunsWritten++
	obs.AddExtRuns(1)
	return segment{off: o.off, count: o.count, sum: o.sum}, nil
}
