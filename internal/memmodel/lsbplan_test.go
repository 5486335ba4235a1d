package memmodel

import (
	"slices"
	"testing"
)

// widths returns the digit widths of a plan.
func widths(digits [][2]uint) []int {
	var out []int
	for i, d := range digits {
		if i > 0 && d[0] != digits[i-1][1] {
			return nil // not contiguous
		}
		out = append(out, int(d[1]-d[0]))
	}
	return out
}

func TestLSBDigits(t *testing.T) {
	cases := []struct {
		name              string
		domain, radixBits int
		inCache           bool
		ranges            int
		want              []int
	}{
		{"plan-1", 1, 0, false, 1, []int{1}},
		{"plan-11", 11, 0, false, 1, []int{11}},
		{"plan-12", 12, 0, false, 1, []int{6, 6}},
		{"plan-22", 22, 0, false, 1, []int{11, 11}},
		{"plan-23", 23, 0, false, 1, []int{8, 8, 7}},
		{"plan-32", 32, 0, false, 1, []int{11, 11, 10}},
		{"plan-64", 64, 0, false, 1, []int{11, 11, 11, 11, 10, 10}},
		{"in-cache-22", 22, 0, true, 1, []int{8, 8, 6}},
		{"explicit-22", 22, 5, false, 1, []int{5, 5, 5, 5, 2}},
		{"explicit-in-cache", 22, 11, true, 1, []int{11, 11}},
		{"numa-16-ranges", 22, 0, false, 16, []int{8, 7, 7}},
		{"numa-4-ranges", 32, 0, false, 4, []int{10, 11, 11}},
		{"numa-narrow-enough", 12, 0, false, 2, []int{6, 6}},
		{"numa-explicit", 22, 11, false, 16, []int{11, 11}},
	}
	for _, c := range cases {
		got := widths(LSBDigits(nil, c.domain, c.radixBits, c.inCache, c.ranges))
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: widths %v, want %v", c.name, got, c.want)
		}
	}
	if d := LSBDigits(nil, 0, 0, false, 1); len(d) != 0 {
		t.Errorf("empty domain planned %v", d)
	}
	// dst is extended, not overwritten.
	pre := [][2]uint{{60, 64}}
	if got := LSBDigits(pre, 22, 0, false, 1); len(got) != 3 || got[0] != pre[0] {
		t.Errorf("LSBDigits did not append: %v", got)
	}
}
