package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"

	partsort "repro"
	"repro/internal/kv"
)

// sortedCopy returns the expected sorted key column, computed by the
// standard library before any timing starts.
func sortedCopy[K partsort.Key](keys []K) []K {
	s := slices.Clone(keys)
	slices.Sort(s)
	return s
}

// checkSort verifies one in-memory sort: the key column must equal the
// expected one exactly, the (key, payload) pairs must be a permutation of
// the input's (inSum is kv.ChecksumPairs of the input — the check
// partsort.SameMultiset makes, with the input side computed once), and a
// stable sort must keep equal keys' record ids increasing.
func checkSort[K partsort.Key](keys, vals, exp []K, inSum kv.Checksum, stable bool) error {
	if err := checkKeys(keys, exp); err != nil {
		return err
	}
	if kv.ChecksumPairs(keys, vals) != inSum {
		return errors.New("output pairs are not a permutation of the input pairs")
	}
	if stable && !partsort.IsStableSorted(keys, vals) {
		return errors.New("equal keys lost their input order")
	}
	return nil
}

// checkKeys compares a sorted key column with the expected one.
func checkKeys[K comparable](got, exp []K) error {
	if len(got) != len(exp) {
		return fmt.Errorf("got %d keys, want %d", len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			return fmt.Errorf("key %d is %v, want %v", i, got[i], exp[i])
		}
	}
	return nil
}

// checkFrameKeys verifies a TCP response payload (status byte first)
// against the expected key column, encoded at the request's width.
func checkFrameKeys(payload, exp []byte) error {
	if len(payload) == 0 {
		return errors.New("empty response frame")
	}
	if payload[0] != 0 {
		msg := payload[1:]
		if len(msg) >= 2 {
			msg = msg[2:]
		}
		return fmt.Errorf("status %d: %s", payload[0], msg)
	}
	if len(payload) < 5 {
		return errors.New("truncated response frame")
	}
	n, got := binary.LittleEndian.Uint32(payload[1:]), payload[5:]
	if !bytes.Equal(got, exp) {
		return fmt.Errorf("response of %d keys (%d bytes) differs from the expected %d bytes", n, len(got), len(exp))
	}
	return nil
}

// checkEmptyDir verifies a spill directory holds nothing after a run.
func checkEmptyDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	if len(ents) != 0 {
		return fmt.Errorf("spill directory %s holds %d entries after the run", dir, len(ents))
	}
	return nil
}
