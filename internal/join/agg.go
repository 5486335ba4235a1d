package join

import (
	"repro/internal/kv"
	"repro/internal/part"
	"repro/internal/pfunc"
)

// Aggregation via partitioning: the other operator family the paper's
// partitioning menu serves. GroupBy partitions rows by group key so each
// partition's group table stays cache-resident, then aggregates the
// partitions independently.

// Agg is one group's running aggregate.
type Agg struct {
	Count uint64
	Sum   uint64
	Min   uint64
	Max   uint64
}

// merge folds one value into the aggregate.
func (a *Agg) merge(v uint64) {
	if a.Count == 0 {
		a.Min, a.Max = v, v
	} else {
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Count++
	a.Sum += v
}

// GroupByOptions configures GroupBy.
type GroupByOptions struct {
	// Fanout is the partitioning fanout (power of two); 0 picks 128.
	Fanout int
	// Threads parallelizes the partitioning pass.
	Threads int
}

// GroupBy computes COUNT/SUM/MIN/MAX(vals) grouped by keys, using one
// radix partitioning pass followed by per-partition hash aggregation.
func GroupBy[K kv.Key](keys, vals []K, opt GroupByOptions) map[K]Agg {
	if len(keys) != len(vals) {
		panic("join: key and value columns must have equal length")
	}
	if opt.Threads < 1 {
		opt.Threads = 1
	}
	fanout := opt.Fanout
	if fanout == 0 {
		fanout = 128
	}
	fn := pfunc.NewHash[K](fanout)
	pK := make([]K, len(keys))
	pV := make([]K, len(vals))
	hist := part.ParallelNonInPlace(nil, keys, vals, pK, pV, fn, opt.Threads, nil)

	out := make(map[K]Agg)
	lo := 0
	for _, h := range hist {
		local := make(map[K]*Agg, h/4+1)
		for i := lo; i < lo+h; i++ {
			a := local[pK[i]]
			if a == nil {
				a = &Agg{}
				local[pK[i]] = a
			}
			a.merge(uint64(pV[i]))
		}
		for k, a := range local {
			out[k] = *a // partitions are disjoint: no cross-partition merge
		}
		lo += h
	}
	return out
}

// GroupByDirect is the single-table baseline for tests.
func GroupByDirect[K kv.Key](keys, vals []K) map[K]Agg {
	out := make(map[K]Agg)
	for i, k := range keys {
		a := out[k]
		a.merge(uint64(vals[i]))
		out[k] = a
	}
	return out
}
