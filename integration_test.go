package partsort

import (
	"testing"

	"repro/internal/gen"
)

// TestPipelineDictionarySortDecode runs the paper's analytical workflow
// end to end: a sparse 64-bit key column is dictionary-compressed into a
// dense domain, radix-sorted over the minimal bits, and decoded back.
func TestPipelineDictionarySortDecode(t *testing.T) {
	n := 1 << 15
	raw := gen.Uniform[uint64](n, 0, 21)
	rids := RIDs[uint64](n)

	d := BuildDictionary(raw)
	codes, err := d.EncodeAll(raw)
	if err != nil {
		t.Fatal(err)
	}
	var st SortStats
	SortLSB(codes, rids, &SortOptions{Threads: 4, Regions: 2, Stats: &st})

	// The dense domain needs far fewer passes than 64 raw bits would.
	if st.Passes > 3 {
		t.Fatalf("dense codes took %d passes; compression did not help", st.Passes)
	}
	decoded, err := d.DecodeAll(codes)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(decoded) {
		t.Fatal("decoded column not sorted: order preservation broken")
	}
	// Payloads still pair with their original keys.
	origRids := RIDs[uint64](n)
	if !SameMultiset(raw, origRids, decoded, rids) {
		t.Fatal("tuples lost through the pipeline")
	}
	// rids[i] points at the original row of decoded[i].
	for i := 0; i < n; i += 997 {
		if raw[rids[i]] != decoded[i] {
			t.Fatalf("rid %d does not point back to key %d", rids[i], decoded[i])
		}
	}
}

// TestPipelinePartitionThenSortPieces partitions a large column, sorts
// each partition independently, and verifies the concatenation is globally
// sorted — the divide-and-conquer pattern the partitioning menu exists
// for.
func TestPipelinePartitionThenSortPieces(t *testing.T) {
	n := 1 << 15
	keys := gen.Uniform[uint32](n, 0, 31)
	vals := RIDs[uint32](n)

	// Range-partition 32 ways so pieces are key-disjoint AND ordered.
	sample := append([]uint32(nil), keys[:4096]...)
	SortMSB(sample, RIDs[uint32](len(sample)), nil)
	delims := make([]uint32, 31)
	for i := range delims {
		delims[i] = sample[(i+1)*len(sample)/32]
	}
	ix := NewRangeIndex(delims)
	dstK := make([]uint32, n)
	dstV := make([]uint32, n)
	hist := Partition(keys, vals, dstK, dstV, ix, 4)

	lo := 0
	for _, h := range hist {
		SortMSB(dstK[lo:lo+h], dstV[lo:lo+h], &SortOptions{Threads: 1})
		lo += h
	}
	if !IsSorted(dstK) {
		t.Fatal("concatenated pieces not globally sorted")
	}
	if !SameMultiset(keys, RIDs[uint32](n), dstK, dstV) {
		t.Fatal("pipeline lost tuples")
	}
}

// TestPipelineInPlaceSharedRecurse uses the parallel in-place partition as
// the first pass of a hand-rolled MSB-style sort, verifying the public
// in-place API supports the paper's recursion pattern.
func TestPipelineInPlaceSharedRecurse(t *testing.T) {
	n := 1 << 14
	keys := gen.Uniform[uint32](n, 0, 9)
	vals := RIDs[uint32](n)
	origK := append([]uint32(nil), keys...)
	origV := append([]uint32(nil), vals...)

	fn := Radix[uint32](28, 32) // top 4 bits
	hist := PartitionInPlaceShared(keys, vals, fn, 4)
	lo := 0
	for _, h := range hist {
		SortCMP(keys[lo:lo+h], vals[lo:lo+h], &SortOptions{Threads: 1, CacheTuples: 512})
		lo += h
	}
	if !IsSorted(keys) {
		t.Fatal("not sorted after in-place partition + per-range sort")
	}
	if !SameMultiset(origK, origV, keys, vals) {
		t.Fatal("tuples lost")
	}
}
