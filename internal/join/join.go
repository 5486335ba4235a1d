// Package join builds equi-join operators from the partitioning menu,
// demonstrating the paper's concluding claim: partitioning variants
// compose into other operations. Three strategies are provided:
//
//   - HashJoin: partition both inputs with the same radix/hash function
//     until each piece is cache-resident, then join piece pairs with
//     private hash tables (Manegold et al. [11], Kim et al. [7]);
//   - SortMergeJoin: sort both inputs (LSB radix-sort) and merge;
//   - NestedLoopJoin: the trivial baseline, correct for any input and the
//     right choice for trivially small pieces [7].
//
// All operators produce the same result multiset: one output row per
// (build, probe) pair with equal keys.
package join

import (
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/pfunc"
	"repro/internal/sortalgo"
)

// Relation is a columnar input: join keys and a same-length payload.
type Relation[K kv.Key] struct {
	Keys []K
	Vals []K
}

// Len returns the number of tuples.
func (r Relation[K]) Len() int { return len(r.Keys) }

// Pair is one join result row: the payloads of a matching build and probe
// tuple, plus the key they matched on.
type Pair[K kv.Key] struct {
	Key      K
	BuildVal K
	ProbeVal K
}

// Emit receives result rows. Implementations must be cheap; operators call
// it once per matching pair.
type Emit[K kv.Key] func(Pair[K])

// Counter is an Emit that counts matches and checksums them, for tests and
// benchmarks that do not materialize results.
type Counter[K kv.Key] struct {
	N        uint64
	Checksum uint64
}

// Emit implements the callback.
func (c *Counter[K]) Emit(p Pair[K]) {
	c.N++
	c.Checksum += uint64(p.Key)*0x9E3779B97F4A7C15 ^ uint64(p.BuildVal)<<1 ^ uint64(p.ProbeVal)
}

// NestedLoopJoin compares every build tuple with every probe tuple:
// O(n*m), the correctness oracle and the leaf joiner for trivial pieces.
func NestedLoopJoin[K kv.Key](build, probe Relation[K], emit Emit[K]) {
	for i, bk := range build.Keys {
		for j, pk := range probe.Keys {
			if bk == pk {
				emit(Pair[K]{Key: bk, BuildVal: build.Vals[i], ProbeVal: probe.Vals[j]})
			}
		}
	}
}

// HashJoinOptions configures HashJoin.
type HashJoinOptions struct {
	// Fanout is the partitioning fanout (power of two). 0 picks one that
	// makes the build pieces roughly cache-resident.
	Fanout int
	// Threads parallelizes the partitioning passes.
	Threads int
	// PieceCutoff: pieces with at most this many build tuples use a
	// nested-loop join instead of a hash table (the [7] refinement).
	PieceCutoff int
}

// HashJoin is the partitioned hash join. Both relations are partitioned by
// the same multiplicative-hash function, so matching keys meet in the same
// piece; each piece pair is joined independently with a cache-resident
// table.
func HashJoin[K kv.Key](build, probe Relation[K], emit Emit[K], opt HashJoinOptions) {
	if opt.Threads < 1 {
		opt.Threads = 1
	}
	fanout := opt.Fanout
	if fanout == 0 {
		fanout = 1
		// Aim for ~4K-tuple build pieces.
		for fanout < 1<<20 && build.Len()/fanout > 4096 {
			fanout *= 2
		}
	}
	fn := pfunc.NewHash[K](fanout)

	sp := obs.Begin("hashjoin-partition", "join", -1)
	bK := make([]K, build.Len())
	bV := make([]K, build.Len())
	bHist := part.ParallelNonInPlace(nil, build.Keys, build.Vals, bK, bV, fn, opt.Threads, nil)

	pK := make([]K, probe.Len())
	pV := make([]K, probe.Len())
	pHist := part.ParallelNonInPlace(nil, probe.Keys, probe.Vals, pK, pV, fn, opt.Threads, nil)
	sp.EndN(int64(build.Len() + probe.Len()))

	sp = obs.Begin("hashjoin-probe", "join", -1)
	bo, po := 0, 0
	for q := 0; q < fanout; q++ {
		bn, pn := bHist[q], pHist[q]
		joinPiece(
			Relation[K]{bK[bo : bo+bn], bV[bo : bo+bn]},
			Relation[K]{pK[po : po+pn], pV[po : po+pn]},
			emit, opt.PieceCutoff)
		bo += bn
		po += pn
	}
	sp.End()
}

// joinPiece joins one cache-resident piece pair.
func joinPiece[K kv.Key](build, probe Relation[K], emit Emit[K], cutoff int) {
	if build.Len() == 0 || probe.Len() == 0 {
		return
	}
	if build.Len() <= cutoff {
		NestedLoopJoin(build, probe, emit)
		return
	}
	ht := make(map[K][]int, build.Len())
	for i, k := range build.Keys {
		ht[k] = append(ht[k], i)
	}
	for j, k := range probe.Keys {
		for _, i := range ht[k] {
			emit(Pair[K]{Key: k, BuildVal: build.Vals[i], ProbeVal: probe.Vals[j]})
		}
	}
}

// SortMergeJoinOptions configures SortMergeJoin.
type SortMergeJoinOptions struct {
	Threads int
}

// SortMergeJoin sorts both relations with the stable LSB radix-sort and
// merges them, emitting the cross product of each equal-key run.
func SortMergeJoin[K kv.Key](build, probe Relation[K], emit Emit[K], opt SortMergeJoinOptions) {
	if opt.Threads < 1 {
		opt.Threads = 1
	}
	bK := append([]K(nil), build.Keys...)
	bV := append([]K(nil), build.Vals...)
	pK := append([]K(nil), probe.Keys...)
	pV := append([]K(nil), probe.Vals...)
	tmpK := make([]K, max(len(bK), len(pK)))
	tmpV := make([]K, max(len(bV), len(pV)))
	so := sortalgo.Options{Threads: opt.Threads}
	sp := obs.Begin("sortmerge-sort", "join", -1)
	sortalgo.LSB(bK, bV, tmpK[:len(bK)], tmpV[:len(bV)], so)
	sortalgo.LSB(pK, pV, tmpK[:len(pK)], tmpV[:len(pV)], so)
	sp.EndN(int64(len(bK) + len(pK)))

	sp = obs.Begin("sortmerge-merge", "join", -1)
	i, j := 0, 0
	for i < len(bK) && j < len(pK) {
		switch {
		case bK[i] < pK[j]:
			i++
		case bK[i] > pK[j]:
			j++
		default:
			k := bK[i]
			iEnd := i
			for iEnd < len(bK) && bK[iEnd] == k {
				iEnd++
			}
			jEnd := j
			for jEnd < len(pK) && pK[jEnd] == k {
				jEnd++
			}
			for bi := i; bi < iEnd; bi++ {
				for pj := j; pj < jEnd; pj++ {
					emit(Pair[K]{Key: k, BuildVal: bV[bi], ProbeVal: pV[pj]})
				}
			}
			i, j = iEnd, jEnd
		}
	}
	sp.End()
}
