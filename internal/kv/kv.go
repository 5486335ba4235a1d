// Package kv defines the key/payload domain shared by every package in the
// repository: fixed-length unsigned integer keys of 32 or 64 bits, as used
// throughout the paper (order-preserving compression reduces any analytical
// key domain to such integers), with payloads of the same width stored in a
// separate array (columnar layout).
package kv

import "math/bits"

// Key is the set of key types every algorithm in this repository is generic
// over: 32- and 64-bit unsigned integers.
type Key interface {
	~uint32 | ~uint64
}

// Width returns the width of K in bits (32 or 64).
func Width[K Key]() int {
	var k K = ^K(0)
	n := 0
	for k != 0 {
		k >>= 1
		n++
	}
	return n
}

// MaxKey returns the maximum representable value of K, used as the +inf
// sentinel by merge loops and index padding.
func MaxKey[K Key]() K {
	return ^K(0)
}

// DomainBits returns the number of low-order bits needed to represent every
// key in s, i.e. ceil(log2(max+1)), and 1 for an all-zero or empty input.
// LSB radix-sort uses it to bound the number of passes by the key domain.
func DomainBits[K Key](s []K) int {
	var m K
	for _, k := range s {
		if k > m {
			m = k
		}
	}
	b := bits.Len64(uint64(m))
	if b == 0 {
		return 1
	}
	return b
}

// SpanBits returns the number of low-order bits in which the keys of s
// differ: bits.Len(or ^ and) over s, which equals bits.Len(min ^ max).
// Every bit at or above it is the same in all keys, and it is 0 for an
// empty or all-equal input. MSB radix-sort starts its digits below it.
func SpanBits[K Key](s []K) int {
	if len(s) == 0 {
		return 0
	}
	var or K
	and := ^K(0)
	for _, k := range s {
		or |= k
		and &= k
	}
	return bits.Len64(uint64(or ^ and))
}

// Checksum is an order-independent fingerprint of a key multiset, used by
// tests and verification helpers to show that a partitioning or sorting pass
// permuted its input rather than corrupting it.
type Checksum struct {
	Sum   uint64 // sum of mixed keys, wrapping
	Xor   uint64 // xor of mixed keys
	Count int
}

// mix64 is the splitmix64 finalizer; mixing before summing makes collisions
// between different multisets astronomically unlikely.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ChecksumOf computes the multiset fingerprint of keys.
func ChecksumOf[K Key](keys []K) Checksum {
	var c Checksum
	c.Count = len(keys)
	for _, k := range keys {
		m := mix64(uint64(k))
		c.Sum += m
		c.Xor ^= m
	}
	return c
}

// AddPair folds one (key, payload) pair into the fingerprint — the
// streaming form of ChecksumPairs for consumers that see tuples block by
// block (the external sort's segment iterators verify each sealed run
// this way as they drain it).
func (c *Checksum) AddPair(k, v uint64) {
	m := mix64(mix64(k) + v)
	c.Sum += m
	c.Xor ^= m
	c.Count++
}

// ChecksumPairs fingerprints the multiset of (key, payload) pairs, so that
// tests can show payloads traveled with their keys.
func ChecksumPairs[K Key](keys, vals []K) Checksum {
	var c Checksum
	c.Count = len(keys)
	for i, k := range keys {
		m := mix64(mix64(uint64(k)) + uint64(vals[i]))
		c.Sum += m
		c.Xor ^= m
	}
	return c
}

// IsSorted reports whether keys is in non-decreasing order.
func IsSorted[K Key](keys []K) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return false
		}
	}
	return true
}
