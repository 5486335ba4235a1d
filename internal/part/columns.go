package part

import (
	"repro/internal/kv"
	"repro/internal/pfunc"
)

// Multi-column partitioning (Section 3.2.1): RAM-resident database tables
// store each column in its own array, so a generic partitioner must move
// one key column plus any number of payload columns of the same width. The
// out-of-cache variant keeps one cache line per column in each partition's
// buffer and flushes each column's line separately — exactly the paper's
// "one cache line per column" extension.

// NonInPlaceOutOfCacheCols is Algorithm 3 over a key column and any number
// of payload columns. starts follows the NonInPlaceOutOfCache contract;
// full lines go out as streaming stores, fenced before the call returns.
func NonInPlaceOutOfCacheCols[K kv.Key, F pfunc.Func[K]](srcKey []K, srcCols [][]K, dstKey []K, dstCols [][]K, fn F, starts []int) {
	nc := len(srcCols)
	if len(dstCols) != nc {
		panic("part: source and destination column counts differ")
	}
	for c := range srcCols {
		if len(srcCols[c]) != len(srcKey) || len(dstCols[c]) < len(dstKey) {
			panic("part: column lengths differ")
		}
	}
	p := fn.Fanout()
	l := LineTuples[K]()
	// One line per column (plus the key line) per partition, laid out
	// flat: buf[c] holds partition p's line at [p*l, (p+1)*l).
	bufKey := make([]K, p*l)
	buf := make([][]K, nc)
	for c := range buf {
		buf[c] = make([]K, p*l)
	}
	off := append([]int(nil), starts...)
	defer storeFence()
	for i, k := range srcKey {
		q := fn.Partition(k)
		o := off[q]
		s := o & (l - 1)
		bufKey[q*l+s] = k
		for c := 0; c < nc; c++ {
			buf[c][q*l+s] = srcCols[c][i]
		}
		off[q] = o + 1
		if s == l-1 {
			lo := o + 1 - l
			if lo >= starts[q] {
				streamCol(dstKey[lo:o+1], bufKey[q*l:q*l+l])
				for c := 0; c < nc; c++ {
					streamCol(dstCols[c][lo:o+1], buf[c][q*l:q*l+l])
				}
				continue
			}
			lo = starts[q]
			bs := lo & (l - 1)
			copy(dstKey[lo:o+1], bufKey[q*l+bs:q*l+l])
			for c := 0; c < nc; c++ {
				copy(dstCols[c][lo:o+1], buf[c][q*l+bs:q*l+l])
			}
		}
	}
	// Drain partial lines.
	for q := range off {
		o := off[q]
		lo := o &^ (l - 1)
		if lo < starts[q] {
			lo = starts[q]
		}
		if lo >= o {
			continue
		}
		bs := lo & (l - 1)
		copy(dstKey[lo:o], bufKey[q*l+bs:q*l+bs+(o-lo)])
		for c := 0; c < nc; c++ {
			copy(dstCols[c][lo:o], buf[c][q*l+bs:q*l+bs+(o-lo)])
		}
	}
}
