// Run formation and delivery. Formation is the counting-free streaming
// pass: classify each tuple by its top digit, buffer it in the bucket's
// write-combining line, and flush full lines into file extents reserved
// on first touch. Delivery walks the buckets in key order, sorting
// one-segment buckets straight into their output range and cutting larger
// ones into sealed segments for the merge. Every bucket is sealed by a
// CRC32C of the bytes formation wrote; delivery and restore recompute it
// on the way back, so a corrupt extent fails with ErrCorrupt before any of
// its tuples reach the output.

package extsort

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"

	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/obs"
)

// sampleKeys bounds the digit-plan sample: a strided probe of at most
// this many keys estimates the key domain without a counting pass.
// Underestimates only cost balance — the top bucket absorbs the clamp —
// never correctness, because the digit stays monotone in the key.
const sampleKeys = 1024

// formRuns is phase 1: the single streaming pass over the input.
func (s *sorter[K]) formRuns(ctl *hard.Ctl, keys, vals []K) error {
	s.planDigit(keys)
	L := s.opt.LineTuples
	for i := range keys {
		ctl.Checkpoint()
		d := s.digit(keys[i])
		b := &s.buckets[d]
		base := d*2*L + b.line*2
		s.slab[base] = keys[i]
		s.slab[base+1] = vals[i]
		b.line++
		if b.line == L {
			if err := s.flushLine(d); err != nil {
				return err
			}
		}
	}
	for d := range s.buckets {
		if s.buckets[d].line > 0 {
			if err := s.flushLine(d); err != nil {
				return err
			}
		}
		if s.buckets[d].count > 0 {
			s.stats.Buckets++
		}
	}
	return nil
}

// planDigit scales the sampled key domain [0, max] onto the fanout, so
// every bucket covers an equal share of it whatever its size: keys are
// shifted down to at most 32 significant bits, then multiplied by
// fanout/(top+1) in 32.32 fixed point. A bare shift by the domain's bit
// length would give a domain just above a power of two only half the
// buckets, each filled to twice what the planner sized them for.
func (s *sorter[K]) planDigit(keys []K) {
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
	s.shift = 0
	if b := bits.Len64(uint64(max)); b > 32 {
		s.shift = uint(b - 32)
	}
	s.top = uint64(max) >> s.shift
	fanout := uint64(1) << s.opt.BucketBits
	s.scale = fanout << 32 / (s.top + 1)
	s.maxDig = int(fanout) - 1
}

// digit maps a key to its bucket. Keys above the sampled domain go to the
// top bucket; the map stays monotone, so concatenating sorted buckets in
// index order yields a sorted array. For x <= top, x·scale stays below
// fanout·2^32, so the product cannot overflow and the digit stays in range.
func (s *sorter[K]) digit(k K) int {
	x := uint64(k) >> s.shift
	if x > s.top {
		return s.maxDig
	}
	return int(x * s.scale >> 32)
}

// flushLine spills bucket d's line buffer into its extent chain,
// reserving a fresh extent when the current one cannot hold the line.
func (s *sorter[K]) flushLine(d int) error {
	b := &s.buckets[d]
	nb := int64(b.line) * s.pairB
	e, err := s.extentFor(b, nb)
	if err != nil {
		return err
	}
	fault.Inject(fault.SiteExtSpill)
	L := s.opt.LineTuples
	line := asBytes(s.slab[d*2*L : d*2*L+b.line*2])[:nb]
	if _, err := s.spillF.WriteAt(line, e.off+e.used); err != nil {
		return ioErr("write", s.spillF, err)
	}
	b.crc = crc32.Update(b.crc, castagnoli, line)
	e.used += nb
	b.count += int64(b.line)
	b.line = 0
	s.stats.FormationBytes += nb
	s.stats.FormationWrites++
	s.stats.SpillBytes += nb
	obs.AddExtSpillBytes(nb)
	return nil
}

// extentFor returns the extent the next nb bytes of bucket b go to,
// reserving file space on first touch (and on overflow) instead of
// pre-counting bucket sizes.
func (s *sorter[K]) extentFor(b *bucketState, nb int64) (*extent, error) {
	if n := len(b.extents); n > 0 {
		if e := &b.extents[n-1]; e.size-e.used >= nb {
			return e, nil
		}
	}
	size := max(s.extentB, nb)
	if err := s.reserve(size, s.spillF); err != nil {
		return nil, err
	}
	b.extents = append(b.extents, extent{off: s.spillTail, size: size})
	s.spillTail += size
	return &b.extents[len(b.extents)-1], nil
}

// readbackHook, when non-nil, runs with a spill file just before the
// sorter first reads back what it wrote there: the formation file when
// delivery starts, the runs file before each merge. Only tests set it, to
// damage spill data at rest.
var readbackHook func(f *os.File)

// deliver is phases 2 and 3: walk buckets in key order, sort each back
// into its slice of the output, sealing and merging segments where a
// bucket exceeds one. A bucket's CRC is checked once all of it has been
// read and before its output range is written; the phase turns to
// phaseDeliver (the unwind then restores the input from the extents) only
// at the first such write.
func (s *sorter[K]) deliver(ctl *hard.Ctl, keys, vals []K) error {
	seg := s.opt.SegmentTuples
	pos := 0
	if readbackHook != nil {
		readbackHook(s.spillF)
	}
	for d := range s.buckets {
		b := &s.buckets[d]
		c := int(b.count)
		if c == 0 {
			continue
		}
		if pos+c > s.n {
			return ioErr("deliver", s.spillF, fmt.Errorf("%w: bucket counts exceed input (%d+%d > %d)", ErrCorrupt, pos, c, s.n))
		}
		outK := keys[pos : pos+c]
		outV := vals[pos : pos+c]
		r := extentReader{f: s.spillF, exts: b.extents, st: &s.stats}
		if c <= seg {
			// One-segment bucket: deinterleave straight into the output
			// range and sort in place — no second spill, no merge.
			pairs := s.readBuf[:2*c]
			if err := r.read(asBytes(pairs)[:int64(c)*s.pairB]); err != nil {
				return err
			}
			if err := r.checkSeal(b.crc); err != nil {
				return err
			}
			s.phase = phaseDeliver
			deinterleave(pairs, outK, outV)
			sortChunk(ctl, outK, outV, s.w, s.opt)
		} else {
			s.segs = s.segs[:0]
			for done := 0; done < c; {
				cn := c - done
				if cn > seg {
					cn = seg
				}
				ck, cv := s.chunkK[:cn], s.chunkV[:cn]
				pairs := s.readBuf[:2*cn]
				if err := r.read(asBytes(pairs)[:int64(cn)*s.pairB]); err != nil {
					return err
				}
				deinterleave(pairs, ck, cv)
				sortChunk(ctl, ck, cv, s.w, s.opt)
				sg, err := s.writeSegment(ck, cv)
				if err != nil {
					return err
				}
				s.segs = append(s.segs, sg)
				done += cn
			}
			if err := r.checkSeal(b.crc); err != nil {
				return err
			}
			s.phase = phaseDeliver
			if readbackHook != nil {
				readbackHook(s.runsF)
			}
			if err := s.mergeRounds(ctl, outK, outV); err != nil {
				return err
			}
		}
		pos += c
	}
	if pos != s.n {
		return ioErr("deliver", s.spillF, fmt.Errorf("%w: delivered %d of %d tuples", ErrCorrupt, pos, s.n))
	}
	return nil
}

// writeSegment seals one sorted chunk: checksum, interleave, append to
// the runs file in one streaming write.
func (s *sorter[K]) writeSegment(ck, cv []K) (segment, error) {
	nb := int64(len(ck)) * s.pairB
	if err := s.reserve(nb, s.runsF); err != nil {
		return segment{}, err
	}
	sg := segment{off: s.runsTail, count: int64(len(ck)), sum: kv.ChecksumPairs(ck, cv)}
	pairs := s.readBuf[:2*len(ck)]
	interleave(pairs, ck, cv)
	fault.Inject(fault.SiteExtSpill)
	if _, err := s.runsF.WriteAt(asBytes(pairs)[:nb], s.runsTail); err != nil {
		return segment{}, ioErr("write", s.runsF, err)
	}
	s.runsTail += nb
	s.stats.RunsWritten++
	s.stats.SpillBytes += nb
	obs.AddExtRuns(1)
	obs.AddExtSpillBytes(nb)
	return sg, nil
}
