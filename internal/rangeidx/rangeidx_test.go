package rangeidx

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
)

// referencePartition is the specification: number of delimiters <= key.
func referencePartition(delims []uint32, key uint32) int {
	n := 0
	for _, d := range delims {
		if d <= key {
			n++
		}
	}
	return n
}

func sortedDelims(n int, seed uint64) []uint32 {
	d := gen.Uniform[uint32](n, 0, seed)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func TestSearchMatchesReference(t *testing.T) {
	f := func(raw []uint32, key uint32) bool {
		d := append([]uint32(nil), raw...)
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return Search(d, key) == referencePartition(d, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSearchEdgeCases(t *testing.T) {
	if Search([]uint32{}, 5) != 0 {
		t.Error("empty delimiters")
	}
	d := []uint32{10, 20, 30}
	cases := []struct {
		key  uint32
		want int
	}{
		{0, 0}, {9, 0}, {10, 1}, {15, 1}, {20, 2}, {29, 2}, {30, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := Search(d, c.key); got != c.want {
			t.Errorf("Search(%d) = %d, want %d", c.key, got, c.want)
		}
	}
	// Duplicated delimiter: keys equal to it skip past all copies.
	dup := []uint32{10, 10, 20}
	if got := Search(dup, 10); got != 2 {
		t.Errorf("Search(dup,10) = %d, want 2", got)
	}
}

func TestTreeLayout(t *testing.T) {
	// Delimiters 1..7 fill a 3-level tree in order: the median at the root,
	// the quartiles below it, the rest in the leaves.
	tree := NewTreeFor([]uint32{1, 2, 3, 4, 5, 6, 7})
	want := []uint32{4, 2, 6, 1, 3, 5, 7}
	if len(tree.t) != 8 || !slices.Equal(tree.t[1:], want) {
		t.Fatalf("slots = %v, want [_ %v]", tree.t, want)
	}
	// Two delimiters pad the third slot with the maximum key.
	tree = NewTreeFor([]uint32{10, 20})
	if want := []uint32{20, 10, ^uint32(0)}; !slices.Equal(tree.t[1:], want) {
		t.Fatalf("padded slots = %v, want [_ %v]", tree.t, want)
	}
}

// treeSweepSizes is every delimiter count 0..1099 plus 2^L-2, 2^L-1 and
// 2^L delimiters (P = 2^L-1, 2^L, 2^L+1) up to 2^13: the full, exactly
// filled and one-over tree at every height.
func treeSweepSizes() []int {
	var nd []int
	for d := 0; d < 1100; d++ {
		nd = append(nd, d)
	}
	for l := 11; l <= 13; l++ {
		nd = append(nd, 1<<l-2, 1<<l-1, 1<<l)
	}
	return nd
}

// checkTreeMatchesSearch checks Partition and LookupBatch against Search on
// 0, the maximum key, every delimiter and its neighbours, and a uniform
// sample.
func checkTreeMatchesSearch[K kv.Key](t *testing.T, d []K, seed uint64) {
	t.Helper()
	tree := NewTreeFor(d)
	if tree.Fanout() != len(d)+1 {
		t.Fatalf("nd=%d: Fanout = %d", len(d), tree.Fanout())
	}
	keys := append(gen.Uniform[K](64, 0, seed), 0, kv.MaxKey[K]())
	for _, x := range d {
		keys = append(keys, x-1, x, x+1)
	}
	out := make([]int32, len(keys))
	tree.LookupBatch(keys, out)
	for i, k := range keys {
		want := Search(d, k)
		if got := tree.Partition(k); got != want {
			t.Fatalf("nd=%d key=%d: Partition = %d, Search = %d", len(d), k, got, want)
		}
		if int(out[i]) != want {
			t.Fatalf("nd=%d key=%d: LookupBatch = %d, Search = %d", len(d), k, out[i], want)
		}
	}
}

func TestTreeMatchesSearch(t *testing.T) {
	for _, nd := range treeSweepSizes() {
		seed := uint64(nd) + 7
		// Full-width delimiters, then a domain of about 2·nd values so that
		// duplicate delimiters (empty partitions) occur.
		d32 := gen.Uniform[uint32](nd, 0, seed)
		d64 := gen.Uniform[uint64](nd, uint64(2*nd+1), seed)
		slices.Sort(d32)
		slices.Sort(d64)
		checkTreeMatchesSearch(t, d32, seed)
		checkTreeMatchesSearch(t, d64, seed)
	}
}

func TestTree64(t *testing.T) {
	d := gen.Uniform[uint64](999, 0, 11)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	tree := NewTreeFor(d)
	keys := gen.Uniform[uint64](5000, 0, 13)
	keys = append(keys, 0, ^uint64(0))
	for _, k := range keys {
		if got, want := tree.Partition(k), Search(d, k); got != want {
			t.Fatalf("key=%d: tree=%d search=%d", k, got, want)
		}
	}
}

func TestTreeLookupBatch(t *testing.T) {
	d := sortedDelims(359, 21)
	tree := NewTreeFor(d)
	// Every length 0..17 covers all tail sizes around the 8-key unroll; the
	// long odd length exercises the steady state.
	lengths := []int{1003}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		keys := gen.Uniform[uint32](n, 0, 77)
		out := make([]int32, len(keys))
		tree.LookupBatch(keys, out)
		for i, k := range keys {
			if int(out[i]) != Search(d, k) {
				t.Fatalf("n=%d batch[%d] = %d, want %d", n, i, out[i], Search(d, k))
			}
		}
	}
}

func TestTreeDuplicateDelimiters(t *testing.T) {
	// Duplicate delimiters create intentionally empty partitions (used for
	// single-key partitions under skew); lookups must still match Search.
	d := []uint32{5, 10, 10, 10, 20, 30, 30}
	tree := NewTreeFor(d)
	for key := uint32(0); key < 40; key++ {
		if got, want := tree.Partition(key), Search(d, key); got != want {
			t.Fatalf("Partition(%d) = %d, want %d", key, got, want)
		}
	}
}

func TestTreeRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsorted delimiters")
		}
	}()
	NewTreeFor([]uint32{2, 1})
}

func TestNewTreeForAllocs(t *testing.T) {
	d := sortedDelims(359, 5)
	// One allocation for the slot array, one for the struct.
	if a := testing.AllocsPerRun(100, func() { NewTreeFor(d) }); a > 2 {
		t.Fatalf("NewTreeFor: %.0f allocations, want at most 2", a)
	}
}
