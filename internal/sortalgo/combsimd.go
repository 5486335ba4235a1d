package sortalgo

import "repro/internal/kv"

// combLanes runs the lane-wise comb sort: the two lane counts that exist
// (W=2 for 64-bit keys, W=4 for 32-bit) dispatch to the branch-free
// unrolled kernels below, which stand in for the paper's min/max pair and
// payload blends one lane at a time; the scalar-lane loop combLanesGeneric
// is their reference (and the path for any other w). The memmodel prices
// the same pass shape on 128-bit vector hardware.
func combLanes[K kv.Key](pk, pv []K, nvec, w int) {
	switch w {
	case 2:
		combLanes2(pk, pv, nvec)
	case 4:
		combLanes4(pk, pv, nvec)
	default:
		combLanesGeneric(pk, pv, nvec, w)
	}
}

// combLanesGeneric is the scalar reference lane loop for any lane count;
// combsimd_test.go asserts the unrolled kernels below match it byte for
// byte.
func combLanesGeneric[K kv.Key](pk, pv []K, nvec, w int) {
	gap := nvec
	for {
		gap = combGap(gap)
		swapped := false
		limit := (nvec - gap) * w
		for i := 0; i < limit; i += w {
			j := i + gap*w
			for l := 0; l < w; l++ {
				if pk[i+l] > pk[j+l] {
					pk[i+l], pk[j+l] = pk[j+l], pk[i+l]
					pv[i+l], pv[j+l] = pv[j+l], pv[i+l]
					swapped = true
				}
			}
		}
		if gap == 1 && !swapped {
			return
		}
	}
}

// laneMask turns an out-of-order comparison into an all-ones/all-zero key
// mask without a branch (the compiler lowers the conditional assignment to
// a flag-set, and the negation spreads it): the scalar stand-in for the
// cmpgt lane mask a vector unit feeds to its payload blends.
func laneMask[K kv.Key](gt bool) K {
	var m K
	if gt {
		m = 1
	}
	return -m
}

// combLanes2 is combLanes for the W=2 lanes of 64-bit keys: both lane
// exchanges unrolled and made branch-free — keys through min/max (compiled
// to conditional moves), payloads through mask blends — so the
// data-dependent swap branch of the scalar loop, unpredictable by design
// while the array is far from sorted, disappears from the pass entirely.
// Bit-identical to the scalar reference: same passes, same exchanges.
func combLanes2[K kv.Key](pk, pv []K, nvec int) {
	gap := nvec
	for {
		gap = combGap(gap)
		var swapped K
		limit := (nvec - gap) * 2
		for i := 0; i < limit; i += 2 {
			j := i + gap*2
			k0, k1 := pk[i], pk[i+1]
			g0, g1 := pk[j], pk[j+1]
			m0 := laneMask[K](k0 > g0)
			m1 := laneMask[K](k1 > g1)
			pk[i], pk[j] = min(k0, g0), max(k0, g0)
			pk[i+1], pk[j+1] = min(k1, g1), max(k1, g1)
			v0, u0 := pv[i], pv[j]
			v1, u1 := pv[i+1], pv[j+1]
			pv[i], pv[j] = v0&^m0|u0&m0, u0&^m0|v0&m0
			pv[i+1], pv[j+1] = v1&^m1|u1&m1, u1&^m1|v1&m1
			swapped |= m0 | m1
		}
		if gap == 1 && swapped == 0 {
			return
		}
	}
}

// combLanes4 is combLanes for the W=4 lanes of 32-bit keys (see
// combLanes2).
func combLanes4[K kv.Key](pk, pv []K, nvec int) {
	gap := nvec
	for {
		gap = combGap(gap)
		var swapped K
		limit := (nvec - gap) * 4
		for i := 0; i < limit; i += 4 {
			j := i + gap*4
			k0, k1, k2, k3 := pk[i], pk[i+1], pk[i+2], pk[i+3]
			g0, g1, g2, g3 := pk[j], pk[j+1], pk[j+2], pk[j+3]
			m0 := laneMask[K](k0 > g0)
			m1 := laneMask[K](k1 > g1)
			m2 := laneMask[K](k2 > g2)
			m3 := laneMask[K](k3 > g3)
			pk[i], pk[j] = min(k0, g0), max(k0, g0)
			pk[i+1], pk[j+1] = min(k1, g1), max(k1, g1)
			pk[i+2], pk[j+2] = min(k2, g2), max(k2, g2)
			pk[i+3], pk[j+3] = min(k3, g3), max(k3, g3)
			v0, u0 := pv[i], pv[j]
			v1, u1 := pv[i+1], pv[j+1]
			v2, u2 := pv[i+2], pv[j+2]
			v3, u3 := pv[i+3], pv[j+3]
			pv[i], pv[j] = v0&^m0|u0&m0, u0&^m0|v0&m0
			pv[i+1], pv[j+1] = v1&^m1|u1&m1, u1&^m1|v1&m1
			pv[i+2], pv[j+2] = v2&^m2|u2&m2, u2&^m2|v2&m2
			pv[i+3], pv[j+3] = v3&^m3|u3&m3, u3&^m3|v3&m3
			swapped |= m0 | m1 | m2 | m3
		}
		if gap == 1 && swapped == 0 {
			return
		}
	}
}
