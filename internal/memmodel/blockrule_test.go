package memmodel

import "testing"

// TestMSBFirstPass pins MSB's first-pass digit and block: sized from n on
// 64-bit pairs (cache bound 16384 tuples) at 2^21-2^24, capped at 11 bits
// past that, narrowed with the block at small n so the classify buffers
// fit a quarter of the input, and never wider than the keys' span.
func TestMSBFirstPass(t *testing.T) {
	cases := []struct {
		name                     string
		n, span, cacheT, workers int
		digit, block             int
	}{
		{"2^21", 1 << 21, 64, 1 << 14, 2, 8, 128},
		{"2^22", 1 << 22, 64, 1 << 14, 2, 9, 128},
		{"2^23", 1 << 23, 64, 1 << 14, 2, 10, 128},
		{"2^24", 1 << 24, 64, 1 << 14, 2, 11, 128},
		{"2^26-cap", 1 << 26, 64, 1 << 14, 2, 11, 128},
		{"block-shrinks", 1 << 17, 64, 1 << 14, 2, 8, 64},
		{"digit-narrows", 1 << 15, 32, 1 << 15, 4, 7, 16},
		{"digit-floor", 64, 64, 1 << 14, 4, 3, 16},
		{"span", 1 << 21, 5, 1 << 14, 2, 5, 128},
	}
	for _, c := range cases {
		d, b := MSBFirstPass(c.n, c.span, c.cacheT, c.workers)
		if d != c.digit || b != c.block {
			t.Errorf("%s: MSBFirstPass = (%d bits, %d-tuple blocks), want (%d, %d)", c.name, d, b, c.digit, c.block)
		}
	}
}

// TestBlockTuples pins the shared block rule: the largest block, halved
// until workers × fanout × block fits a quarter of the input, floored at
// 16 tuples.
func TestBlockTuples(t *testing.T) {
	cases := []struct {
		n, fanout, workers, max, want int
	}{
		{6_000_000, 360, 2, MSBLocalBlockTuples, 128},
		{2_000_000, 360, 2, MSBLocalBlockTuples, 128},
		{1 << 17, 360, 2, MSBLocalBlockTuples, 32},
		{1 << 21, 256, 2, MSBLocalBlockTuples, 128},
		{1 << 15, 256, 4, MSBLocalBlockTuples, 16},
	}
	for _, c := range cases {
		if got := BlockTuples(c.n, c.fanout, c.workers, c.max); got != c.want {
			t.Errorf("BlockTuples(%d, %d, %d, %d) = %d, want %d", c.n, c.fanout, c.workers, c.max, got, c.want)
		}
	}
}

// TestMSBLocalBlock pins the local passes' block: 128 tuples at the
// default cache bound of 64- and 32-bit pairs, halved with a smaller
// bound until the 256 × B-tuple buffers hold at most 2·cacheT tuples,
// floored at 16.
func TestMSBLocalBlock(t *testing.T) {
	for _, c := range []struct{ cacheT, want int }{
		{WorkerCacheBytes / 16, 128},
		{WorkerCacheBytes / 8, 128},
		{8192, 64},
		{4096, 32},
		{2048, 16},
		{1024, 16},
	} {
		if got := MSBLocalBlock(c.cacheT); got != c.want {
			t.Errorf("MSBLocalBlock(%d) = %d, want %d", c.cacheT, got, c.want)
		}
	}
}

// TestCMPFanout pins CMP's per-pass fanout, ⌈4n/cacheT⌉ within [2, cap],
// on 64-bit pairs (cacheT 16384): capped at 2^21 and for the first pass
// of 2^23, small for the second pass of 2^23 (a ~23k-tuple partition),
// and the floor just past the cache bound and under a small cap.
func TestCMPFanout(t *testing.T) {
	cases := []struct{ n, cacheT, cap, want int }{
		{1 << 21, 16384, RangeFanout, 360},
		{1 << 23, 16384, RangeFanout, 360},
		{(1 << 23) / 360, 16384, RangeFanout, 6},
		{1 << 18, 16384, RangeFanout, 64},
		{16385, 16384, RangeFanout, 5},
		{1 << 14, 128, 2, 2},
	}
	for _, c := range cases {
		if got := CMPFanout(c.n, c.cacheT, c.cap); got != c.want {
			t.Errorf("CMPFanout(%d, %d, %d) = %d, want %d", c.n, c.cacheT, c.cap, got, c.want)
		}
	}
}
