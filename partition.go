// Package partsort is a main-memory partitioning and sorting library for
// analytical database workloads, reproducing "A Comprehensive Study of
// Main-Memory Partitioning and its Application to Large-Scale Comparison-
// and Radix-Sort" (Polychroniou & Ross, SIGMOD 2014).
//
// The library operates on columnar tuples: a key column and a same-length
// payload column of 32- or 64-bit unsigned integers (order-preserving
// dictionary compression maps richer domains onto such keys; see
// BuildDictionary). It provides:
//
//   - the full menu of partitioning variants (Figure 1 of the paper):
//     radix, hash and range partition functions; in-cache and out-of-cache
//     data movement; non-in-place, in-place and synchronized
//     shared-segment variants; and NUMA-aware drivers,
//   - a cache-resident range index that makes range partitioning
//     comparably fast with radix and hash,
//   - three large-scale sorting algorithms built from those variants:
//     stable LSB radix-sort, fully in-place MSB radix-sort, and a
//     wide-fanout range-partitioning comparison sort.
//
// Quick start:
//
//	keys := []uint32{...}
//	rids := partsort.RIDs[uint32](len(keys))
//	partsort.SortLSB(keys, rids, nil)
package partsort

import (
	"context"
	"fmt"

	"repro/internal/gen"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/memmodel"
	"repro/internal/part"
	"repro/internal/pfunc"
	"repro/internal/rangeidx"
)

// Key constrains the supported key and payload types: 32- and 64-bit
// unsigned integers.
type Key = kv.Key

// PartitionFunc maps a key to a destination partition in [0, Fanout()).
// Radix, Hash and NewRangeIndex produce implementations; any custom pure
// function works too.
type PartitionFunc[K Key] interface {
	Partition(k K) int
	Fanout() int
}

// Radix returns the radix partition function over the key bit range
// [loBit, hiBit): shift right by loBit, mask to hiBit-loBit bits. Fanout
// is 2^(hiBit-loBit).
func Radix[K Key](loBit, hiBit uint) PartitionFunc[K] {
	return pfunc.NewRadix[K](loBit, hiBit)
}

// Hash returns the multiplicative-hash partition function with the given
// power-of-two fanout: cheap, balanced, and deliberately not a hash-table
// quality hash (partitioning needs balance, not collision resistance).
func Hash[K Key](fanout int) PartitionFunc[K] {
	return pfunc.NewHash[K](fanout)
}

// RIDs returns the payload column 0..n-1 (each tuple's record id).
func RIDs[K Key](n int) []K {
	return gen.RIDs[K](n)
}

// Partition stably partitions src tuples into dst (same length) using
// `threads` goroutines and returns the histogram. This is the paper's
// parallel non-in-place out-of-cache variant: per-thread histograms, one
// prefix-sum barrier, then software write-combining through per-partition
// cache-line buffers. It panics with the error TryPartitionCtx would
// return (*ArgError or *InternalError).
func Partition[K Key, F PartitionFunc[K]](srcKeys, srcVals, dstKeys, dstVals []K, fn F, threads int) []int {
	hist, err := TryPartitionCtx(context.Background(), srcKeys, srcVals, dstKeys, dstVals, fn, threads)
	mustSort(err)
	return hist
}

// TryPartitionCtx is Partition returning errors instead of panicking,
// under a context: cancellation is observed between chunks of the
// parallel histogram and scatter loops. On error src is untouched (the
// scatter only writes dst) and the returned histogram is nil.
func TryPartitionCtx[K Key, F PartitionFunc[K]](ctx context.Context, srcKeys, srcVals, dstKeys, dstVals []K, fn F, threads int) ([]int, error) {
	const op = "Partition"
	if err := validatePairs(op, "srcKeys", "srcVals", srcKeys, srcVals); err != nil {
		return nil, err
	}
	if err := validatePairs(op, "dstKeys", "dstVals", dstKeys, dstVals); err != nil {
		return nil, err
	}
	if len(srcKeys) != len(dstKeys) {
		return nil, &ArgError{Func: op, Field: "dstKeys",
			Reason: fmt.Sprintf("length %d does not match srcKeys length %d", len(dstKeys), len(srcKeys))}
	}
	if err := validateThreads(op, threads); err != nil {
		return nil, err
	}
	if err := validateFanout(op, fn.Fanout()); err != nil {
		return nil, err
	}
	var hist []int
	err := tryRun(op, ctx, nil, 0, func(ctl *hard.Ctl) {
		hist = part.ParallelNonInPlace(nil, srcKeys, srcVals, dstKeys, dstVals, fn, max(threads, 1), ctl)
	})
	if err != nil {
		return nil, err
	}
	return hist, nil
}

// PartitionInPlace partitions keys/vals in place (single goroutine) and
// returns the histogram: Algorithm 2's swap cycles for cache-resident
// inputs (at most cacheTuples tuples; pass 0 to use the sorts' 256 KiB
// per-worker budget, memmodel.WorkerCacheBytes), and above that the single-worker block permutation MSB's
// out-of-cache passes run, whose classify scan also counts the histogram.
// The block permutation holds fanout × 128 tuples of scratch per column.
func PartitionInPlace[K Key, F PartitionFunc[K]](keys, vals []K, fn F, cacheTuples int) []int {
	mustValid(validatePairs("PartitionInPlace", "keys", "vals", keys, vals))
	mustValid(validateFanout("PartitionInPlace", fn.Fanout()))
	if cacheTuples <= 0 {
		cacheTuples = memmodel.WorkerCacheBytes / (2 * kv.Width[K]() / 8)
	}
	if len(keys) <= cacheTuples {
		hist := part.Histogram(keys, fn)
		part.InPlaceInCache(nil, keys, vals, fn, hist)
		return hist
	}
	starts := part.BlockPermute(nil, keys, vals, fn, memmodel.MSBLocalBlockTuples, 1, nil, nil, nil)
	// Overwrite starts with the histogram front to back: hist[p] lands
	// on starts[p] only after both of its bounds were read.
	hist := starts[:fn.Fanout()]
	for p := range hist {
		hist[p] = starts[p+1] - starts[p]
	}
	return hist
}

// PartitionInPlaceShared partitions keys/vals in place inside one shared
// segment with multiple workers synchronized by atomic fetch-and-add
// (Algorithm 5), and returns the histogram.
func PartitionInPlaceShared[K Key, F PartitionFunc[K]](keys, vals []K, fn F, workers int) []int {
	mustValid(validatePairs("PartitionInPlaceShared", "keys", "vals", keys, vals))
	mustValid(validateFanout("PartitionInPlaceShared", fn.Fanout()))
	if workers < 1 {
		workers = 1
	}
	hist := part.Histogram(keys, fn)
	part.InPlaceSynchronized(keys, vals, fn, hist, workers)
	return hist
}

// PartitionColumns stably partitions a key column plus any number of
// payload columns of the same width (the columnar layout of RAM-resident
// tables, Section 3.2.1: one buffered cache line per column per
// partition). Returns the histogram. Single-threaded; combine with
// Histogram/starts plumbing in package users needing parallelism.
func PartitionColumns[K Key, F PartitionFunc[K]](srcKey []K, srcCols [][]K, dstKey []K, dstCols [][]K, fn F) []int {
	const op = "PartitionColumns"
	if len(dstKey) != len(srcKey) {
		mustValid(&ArgError{Func: op, Field: "dstKey",
			Reason: fmt.Sprintf("length %d does not match srcKey length %d", len(dstKey), len(srcKey))})
	}
	if len(dstCols) != len(srcCols) {
		mustValid(&ArgError{Func: op, Field: "dstCols",
			Reason: fmt.Sprintf("%d columns do not match srcCols count %d", len(dstCols), len(srcCols))})
	}
	for i := range srcCols {
		if len(srcCols[i]) != len(srcKey) {
			mustValid(&ArgError{Func: op, Field: "srcCols",
				Reason: fmt.Sprintf("column %d length %d does not match srcKey length %d", i, len(srcCols[i]), len(srcKey))})
		}
		if len(dstCols[i]) != len(srcKey) {
			mustValid(&ArgError{Func: op, Field: "dstCols",
				Reason: fmt.Sprintf("column %d length %d does not match srcKey length %d", i, len(dstCols[i]), len(srcKey))})
		}
	}
	mustValid(validateFanout(op, fn.Fanout()))
	hist := part.Histogram(srcKey, fn)
	starts, _ := part.Starts(hist)
	part.NonInPlaceOutOfCacheCols(srcKey, srcCols, dstKey, dstCols, fn, starts)
	return hist
}

// Histogram counts tuples per partition without moving data.
func Histogram[K Key, F PartitionFunc[K]](keys []K, fn F) []int {
	return part.Histogram(keys, fn)
}

// RangeIndex computes range partition functions through a cache-resident
// pointerless tree (the paper's Section 3.5.2 index with binary nodes, as
// in IPS⁴o's splitter tree): given P-1 sorted delimiters, Lookup(k)
// returns the partition whose range holds k after ceil(log2 P)
// branch-free compares.
type RangeIndex[K Key] struct {
	tree *rangeidx.Tree[K]
}

// NewRangeIndex builds an index over sorted delimiters (duplicates allowed
// — they produce intentionally empty partitions). Fanout is
// len(delims)+1.
func NewRangeIndex[K Key](delims []K) *RangeIndex[K] {
	return &RangeIndex[K]{tree: rangeidx.NewTreeFor(delims)}
}

// Partition implements PartitionFunc.
func (ix *RangeIndex[K]) Partition(k K) int {
	return ix.tree.Partition(k)
}

// Lookup returns the partition of k: the number of delimiters <= k.
func (ix *RangeIndex[K]) Lookup(k K) int {
	return ix.tree.Partition(k)
}

// LookupBatch computes partitions for a batch of keys, walking 8 keys
// through the tree level-synchronously; out must have len(keys) capacity.
func (ix *RangeIndex[K]) LookupBatch(keys []K, out []int32) {
	ix.tree.LookupBatch(keys, out)
}

// Fanout implements PartitionFunc.
func (ix *RangeIndex[K]) Fanout() int {
	return ix.tree.Fanout()
}

// Dictionary is an order-preserving dictionary mapping a sparse key domain
// onto dense codes, so radix sorts can run over minimal key bits.
type Dictionary[K Key] = gen.Dictionary[K]

// BuildDictionary constructs an order-preserving dictionary over the
// distinct values of keys.
func BuildDictionary[K Key](keys []K) *Dictionary[K] {
	return gen.BuildDictionary(keys)
}
