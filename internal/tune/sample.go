// Workload sampling: a cheap uniform sample of the key column estimating
// the workload descriptors the planner needs — the key span, duplicate
// density, and Zipf-ish head mass (the skew signal of Section 5).

package tune

import (
	"math/bits"
	"sort"

	"repro/internal/kv"
)

// DefaultSampleSize is the sample size SampleKeys uses when given 0: large
// enough to estimate head mass and duplicate density within a few percent,
// small enough to cost microseconds.
const DefaultSampleSize = 1024

// headKeys is the number of most-frequent sampled keys whose combined mass
// defines HeadMass. Eight hot keys carry ~40% of a Zipf theta=1.2 stream —
// the paper's threshold for skew heavy enough to defeat radix-bucket
// balancing — and a vanishing fraction of a uniform one.
const headKeys = 8

// headMassSkew is the HeadMass threshold above which the sampler flags
// HeavySkew (Zipf theta >= ~1.2; see headKeys).
const headMassSkew = 0.4

// WorkloadStats is the sampled description of one sorting problem — the
// measured counterpart of the hand-filled Workload the static decision
// table consumes.
type WorkloadStats struct {
	// N is the full column length (exact, not sampled).
	N int `json:"n"`
	// SampleSize is the number of keys actually sampled (min(N, requested)).
	SampleSize int `json:"sample_size"`
	// DomainBits estimates the key span: the bit width of min ^ max over
	// the sample, the bits below the prefix every sampled key shares (as
	// kv.SpanBits reads it on the whole column), at least 1. Dense keys
	// behind a shared high prefix read as dense. An underestimate is
	// possible but the sorts rescan their keys themselves; the planner
	// only needs the magnitude.
	DomainBits int `json:"domain_bits"`
	// DistinctFrac is the fraction of sampled keys that were distinct: ~1
	// for permutation-like columns, small for heavily duplicated ones.
	DistinctFrac float64 `json:"distinct_frac"`
	// HeadMass is the fraction of the sample held by the headKeys most
	// frequent keys — the Zipf head-mass skew signal.
	HeadMass float64 `json:"head_mass"`
	// HeavySkew reports HeadMass >= headMassSkew: skew heavy enough that
	// radix buckets cannot be balanced and the comparison sort's sampled
	// splitters win (Section 4.3.2).
	HeavySkew bool `json:"heavy_skew"`
}

// SampleKeys estimates WorkloadStats from sampleSize uniformly drawn keys
// (0 selects DefaultSampleSize). The draw is a fixed-size uniform index
// sample — the random-access equivalent of a reservoir sample, at
// O(sampleSize) instead of a full scan — deterministic in seed, so the
// same column and seed always produce the same stats (and therefore the
// same plan).
func SampleKeys[K kv.Key](keys []K, sampleSize int, seed uint64) WorkloadStats {
	n := len(keys)
	st := WorkloadStats{N: n, DomainBits: 1}
	if n == 0 {
		return st
	}
	if sampleSize <= 0 {
		sampleSize = DefaultSampleSize
	}

	minKey, maxKey := ^uint64(0), uint64(0)
	freq := make(map[uint64]int, sampleSize)
	if n <= sampleSize {
		// Small column: use it whole, no sampling error.
		st.SampleSize = n
		for _, k := range keys {
			u := uint64(k)
			freq[u]++
			minKey, maxKey = min(minKey, u), max(maxKey, u)
		}
	} else {
		st.SampleSize = sampleSize
		x := seed ^ 0x5EED5EED5EED5EED
		for i := 0; i < sampleSize; i++ {
			// splitmix64 stream -> uniform index (with replacement; the
			// collision rate at sampleSize << n is negligible).
			x += 0x9E3779B97F4A7C15
			z := x
			z ^= z >> 30
			z *= 0xBF58476D1CE4E5B9
			z ^= z >> 27
			z *= 0x94D049BB133111EB
			z ^= z >> 31
			u := uint64(keys[z%uint64(n)])
			freq[u]++
			minKey, maxKey = min(minKey, u), max(maxKey, u)
		}
	}

	if b := bits.Len64(minKey ^ maxKey); b > 0 {
		st.DomainBits = b
	}
	st.DistinctFrac = float64(len(freq)) / float64(st.SampleSize)

	counts := make([]int, 0, len(freq))
	for _, c := range freq {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	head := 0
	for i := 0; i < len(counts) && i < headKeys; i++ {
		head += counts[i]
	}
	st.HeadMass = float64(head) / float64(st.SampleSize)
	st.HeavySkew = st.HeadMass >= headMassSkew
	return st
}
