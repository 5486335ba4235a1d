package splitter

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/rangeidx"
)

func TestSampleDeterministicAndInRange(t *testing.T) {
	keys := gen.Uniform[uint32](1000, 500, 3)
	a := Sample(keys, 100, 7)
	b := Sample(keys, 100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
		if a[i] >= 500 {
			t.Fatal("sample outside key domain")
		}
	}
	if Sample([]uint32{}, 10, 1) != nil {
		t.Fatal("empty input should yield nil sample")
	}
	if Sample(keys, 0, 1) != nil {
		t.Fatal("zero size should yield nil sample")
	}
}

func TestEqualDepthBalances(t *testing.T) {
	const n, p = 1 << 16, 16
	keys := gen.Uniform[uint32](n, 0, 5)
	delims := Delimiters(keys, p, 64, 9)
	if len(delims) != p-1 {
		t.Fatalf("got %d delimiters", len(delims))
	}
	if !kv.IsSorted(delims) {
		t.Fatal("delimiters not sorted")
	}
	counts := make([]int, p)
	for _, k := range keys {
		counts[rangeidx.Search(delims, k)]++
	}
	for i, c := range counts {
		if c < n/p/2 || c > n/p*2 {
			t.Fatalf("partition %d has %d keys, mean %d", i, c, n/p)
		}
	}
}

func TestEqualDepthEdgeCases(t *testing.T) {
	if got := EqualDepth([]uint32{1, 2, 3}, 1); got != nil {
		t.Fatal("p=1 should yield no delimiters")
	}
	if got := EqualDepth([]uint32{}, 4); got != nil {
		t.Fatal("empty sample should yield no delimiters")
	}
	// p larger than sample size still yields p-1 (possibly duplicate) delims.
	d := EqualDepth([]uint32{5, 7}, 8)
	if len(d) != 7 {
		t.Fatalf("got %d delimiters", len(d))
	}
}

func TestRefineDuplicatesIsolatesHotKey(t *testing.T) {
	// Delimiter 42 sampled three times: heavy skew on 42.
	delims := []uint32{10, 42, 42, 42, 90}
	r := RefineDuplicates(delims)
	want := []uint32{10, 42, 43, 90}
	if len(r.Delims) != len(want) {
		t.Fatalf("Delims = %v", r.Delims)
	}
	for i := range want {
		if r.Delims[i] != want[i] {
			t.Fatalf("Delims = %v, want %v", r.Delims, want)
		}
	}
	if r.Discarded != 1 {
		t.Fatalf("Discarded = %d", r.Discarded)
	}
	// Partition [42,43) must be flagged single-key. With delims
	// (10,42,43,90): partition index of key 42 is 2.
	p := rangeidx.Search(r.Delims, 42)
	if !r.SingleKey[p] {
		t.Fatalf("partition %d not flagged single-key; flags=%v", p, r.SingleKey)
	}
	// All keys equal to 42 land in that partition and nothing else does.
	if rangeidx.Search(r.Delims, 41) == p || rangeidx.Search(r.Delims, 43) == p {
		t.Fatal("single-key partition contains neighbors")
	}
}

func TestRefineDuplicatesMaxKey(t *testing.T) {
	m := ^uint32(0)
	r := RefineDuplicates([]uint32{5, m, m})
	if len(r.Delims) != 2 || r.Delims[1] != m {
		t.Fatalf("Delims = %v", r.Delims)
	}
	p := rangeidx.Search(r.Delims, m)
	if !r.SingleKey[p] {
		t.Fatal("open last partition [max,inf) not flagged single-key")
	}
}

func TestRefineDuplicatesAdjacent(t *testing.T) {
	// X,X followed by X+1: the synthesized X+1 collides and is dropped.
	r := RefineDuplicates([]uint32{7, 7, 8})
	want := []uint32{7, 8}
	if len(r.Delims) != 2 || r.Delims[0] != want[0] || r.Delims[1] != want[1] {
		t.Fatalf("Delims = %v, want %v", r.Delims, want)
	}
	if !kv.IsSorted(r.Delims) {
		t.Fatal("refined delimiters not sorted")
	}
}

func TestRefineNoDuplicatesPassThrough(t *testing.T) {
	delims := []uint64{1, 5, 9}
	r := RefineDuplicates(delims)
	if len(r.Delims) != 3 || r.Discarded != 0 {
		t.Fatalf("unexpected refinement: %+v", r)
	}
	for _, s := range r.SingleKey {
		if s {
			t.Fatal("no partition should be single-key")
		}
	}
}

func TestRadixBoundaries(t *testing.T) {
	b := RadixBoundaries[uint32](2)
	want := []uint32{1 << 30, 2 << 30, 3 << 30}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("boundaries = %v", b)
		}
	}
	b64 := RadixBoundaries[uint64](3)
	if len(b64) != 7 || b64[0] != 1<<61 {
		t.Fatalf("64-bit boundaries = %v", b64)
	}
}

func TestUnionPinsRangesInsideBuckets(t *testing.T) {
	// After the union, every range must lie inside one top-bits bucket:
	// consecutive delimiters never straddle a boundary.
	sampled := gen.Uniform[uint32](31, 0, 3)
	sort.Slice(sampled, func(i, j int) bool { return sampled[i] < sampled[j] })
	bounds := RadixBoundaries[uint32](3)
	u := Union(sampled, bounds)
	if !kv.IsSorted(u) {
		t.Fatal("union not sorted")
	}
	for i := 1; i < len(u); i++ {
		if u[i] == u[i-1] {
			t.Fatal("union has duplicates")
		}
	}
	topBits := func(k uint32) uint32 { return k >> 29 }
	// Each range (u[i-1], u[i]) must stay within one bucket: the bucket of
	// u[i]-1 equals the bucket of u[i-1], OR u[i-1] is itself a boundary.
	full := append([]uint32{0}, u...)
	for i := 1; i < len(full); i++ {
		lo, hi := full[i-1], full[i]-1
		if topBits(lo) != topBits(hi) {
			t.Fatalf("range [%d,%d) straddles top-bit buckets %d and %d",
				lo, full[i], topBits(lo), topBits(hi))
		}
	}
}

func TestUnionMerge(t *testing.T) {
	a := []uint32{1, 3, 5}
	b := []uint32{2, 3, 6}
	u := Union(a, b)
	want := []uint32{1, 2, 3, 5, 6}
	if len(u) != len(want) {
		t.Fatalf("Union = %v", u)
	}
	for i := range want {
		if u[i] != want[i] {
			t.Fatalf("Union = %v, want %v", u, want)
		}
	}
	if got := Union(nil, b); len(got) != 3 {
		t.Fatalf("Union(nil,b) = %v", got)
	}
}

// TestUnionKeepsSampledRepeats checks that a key the sampled delimiters
// repeat survives the union with radix boundaries, one of them equal to
// it, so RefineDuplicates still gives it a single-key partition.
func TestUnionKeepsSampledRepeats(t *testing.T) {
	u := Union([]uint32{1 << 30, 3 << 30, 3 << 30}, RadixBoundaries[uint32](2))
	want := []uint32{1 << 30, 2 << 30, 3 << 30, 3 << 30}
	if !slices.Equal(u, want) {
		t.Fatalf("Union = %v, want %v", u, want)
	}
	ref := RefineDuplicates(u)
	if !slices.Equal(ref.Delims, []uint32{1 << 30, 2 << 30, 3 << 30, 3<<30 + 1}) || !ref.SingleKey[3] {
		t.Fatalf("RefineDuplicates = %v, single %v: 3<<30 not isolated", ref.Delims, ref.SingleKey)
	}
}
