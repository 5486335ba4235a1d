// Package splitter selects range-partition delimiters: uniform sampling,
// equal-depth splitter extraction, duplicate-key refinement that produces
// single-key partitions under skew (Section 4.3.2 / [13]), and the hybrid
// range-radix delimiter unions used by the sorts' first NUMA pass (Sections
// 4.2.1 and 4.2.2).
//
// Delimiter semantics follow package rangeidx: partition p holds keys k
// with delims[p-1] <= k < delims[p] (with implicit -inf / +inf sentinels).
package splitter

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/obs"
)

// Sample draws size keys uniformly (with replacement) from keys, using a
// deterministic generator, and counts them as splitter samples. An empty
// input yields an empty sample.
func Sample[K kv.Key](keys []K, size int, seed uint64) []K {
	s := Draw(keys, size, seed)
	Count(len(s))
	return s
}

// Draw is Sample without the splitter_samples counter, for a caller that
// may read the sample only as a skew test and count it (Count) once it
// picks splitters from it.
func Draw[K kv.Key](keys []K, size int, seed uint64) []K {
	if len(keys) == 0 || size <= 0 {
		return nil
	}
	r := gen.NewRNG(seed)
	s := make([]K, size)
	for i := range s {
		s[i] = keys[r.Uint64n(uint64(len(keys)))]
	}
	return s
}

// Count adds size keys to the splitter_samples counter.
func Count(size int) {
	if o := obs.Cur(); o != nil && size > 0 {
		o.Counters.SplitterSamples.Add(uint64(size))
	}
}

// EqualDepth extracts p-1 delimiters from the sample that split it into p
// parts of equal depth. The sample is sorted in place.
func EqualDepth[K kv.Key](sample []K, p int) []K {
	if p < 1 {
		panic("splitter: p must be positive")
	}
	if p == 1 || len(sample) == 0 {
		return nil
	}
	slices.Sort(sample)
	delims := make([]K, p-1)
	for i := 1; i < p; i++ {
		idx := i * len(sample) / p
		if idx >= len(sample) {
			idx = len(sample) - 1
		}
		delims[i-1] = sample[idx]
	}
	return delims
}

// Oversample is the number of keys CMP's range passes sample per
// partition of an n-key segment: IPS⁴o's oversampling factor (Axtmann et
// al.), α = max(2, ⌊log2 n / 5⌋), about 0.2·log2 n. A fixed 64 per
// partition sampled most of a segment that a wide pass cut into
// partitions of a few thousand keys; α keys per partition cost α·p keys
// however large the partitions are, and a key with at least 2/p of the
// segment still fills two delimiter positions, so RefineDuplicates still
// isolates it.
func Oversample(n int) int {
	return max(2, (bits.Len(uint(n))-1)/5)
}

// Delimiters samples perPart × p keys (at most all of them) and returns
// p-1 equal-depth delimiters. CMP's range passes sample Oversample(n)
// keys per partition; LSB's NUMA region split, a few ranges per region,
// samples 64.
func Delimiters[K kv.Key](keys []K, p, perPart int, seed uint64) []K {
	return EqualDepth(Sample(keys, min(perPart*p, len(keys)), seed), p)
}

// Refined is the result of duplicate refinement: delimiters with duplicates
// collapsed into single-key partitions.
type Refined[K kv.Key] struct {
	Delims []K
	// SingleKey[p] reports that partition p contains exactly one distinct
	// key (a hot key isolated by the refinement); such partitions need no
	// recursive sorting.
	SingleKey []bool
	// Discarded is the number of duplicate delimiters dropped; callers may
	// switch to a smaller range index when too many are discarded.
	Discarded int
}

// RefineDuplicates applies the paper's good-splitting rule: when a value X
// is sampled two or more times as a delimiter, the skew on X is heavy
// enough that keys equal to X could overflow an in-cache part, so X gets a
// partition of its own. With this package's half-open semantics the
// single-key partition [X, X+1) is produced by the delimiter pair (X, X+1);
// when X is the maximum representable key the open last partition [X, +inf)
// is already single-key and only X itself is kept.
// (The paper phrases the same construction as the pair (X-1, X] under its
// inclusive-upper-bound convention.)
func RefineDuplicates[K kv.Key](delims []K) Refined[K] {
	var out []K
	var singleAfter []K // values X whose partition [X, X+1) is single-key
	discarded := 0
	for i := 0; i < len(delims); {
		j := i
		for j < len(delims) && delims[j] == delims[i] {
			j++
		}
		x := delims[i]
		if j-i >= 2 {
			discarded += j - i - 2
			out = append(out, x)
			if x != kv.MaxKey[K]() {
				out = append(out, x+1)
			} else {
				discarded++ // the pair collapses; [max, +inf) is single-key
			}
			singleAfter = append(singleAfter, x)
		} else {
			out = append(out, x)
		}
		i = j
	}
	// Deduplicate boundary collisions introduced by the +1 (e.g. delims
	// ..., X, X, X+1, ... produce X, X+1, X+1).
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		} else {
			discarded++
		}
	}
	out = dedup
	single := make([]bool, len(out)+1)
	for _, x := range singleAfter {
		// Partition starting at delimiter x is single-key.
		p := sort.Search(len(out), func(i int) bool { return out[i] >= x })
		if p < len(out) && out[p] == x {
			single[p+1] = true
		}
	}
	return Refined[K]{Delims: out, SingleKey: single, Discarded: discarded}
}

// RadixBoundaries returns the 2^bits - 1 delimiters at the boundaries of
// the top `bits` bits of a width-bit key: i << (width-bits) for
// i = 1..2^bits-1. Unioned with sampled delimiters they pin every range
// inside one top-bits bucket (Section 4.2.2).
func RadixBoundaries[K kv.Key](bits int) []K {
	width := kv.Width[K]()
	if bits < 1 || bits >= width {
		panic("splitter: radix boundary bits out of range")
	}
	n := 1<<bits - 1
	out := make([]K, n)
	for i := 1; i <= n; i++ {
		out[i-1] = K(i) << (width - bits)
	}
	return out
}

// Union merges two sorted delimiter sets. A value of b already present
// is dropped, but repeats within a stay, so RefineDuplicates over the
// result still isolates a key that a (the sampled delimiters) repeats.
func Union[K kv.Key](a, b []K) []K {
	out := make([]K, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j == len(b) || (i < len(a) && a[i] <= b[j]) {
			out = append(out, a[i])
			i++
			continue
		}
		if len(out) == 0 || out[len(out)-1] != b[j] {
			out = append(out, b[j])
		}
		j++
	}
	return out
}
