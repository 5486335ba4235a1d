package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	partsort "repro"
	"repro/internal/gen"
	"repro/internal/kv"
)

// quickConfig returns a quick-mode configuration with a sortd built
// into the test's temporary directory.
func quickConfig(t *testing.T) config {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	sortd := filepath.Join(tmp, "sortd")
	cmd := exec.Command("go", "build", "-o", sortd, "./cmd/sortd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build sortd: %v\n%s", err, out)
	}
	t.Cleanup(runExitHooks)
	return config{seed: 7, seconds: 1, quick: true, sortd: sortd, root: root, tmp: tmp}
}

// sameMetrics reports the difference between a run's metrics and a
// BENCHMARK.json metric list, by name and unit.
func sameMetrics(t *testing.T, what string, got map[string]value, want []specMetric) {
	t.Helper()
	seen := make(map[string]bool)
	for _, m := range want {
		seen[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: BENCHMARK.json metric %s was not emitted", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s: emitted metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

// TestQuickRuns runs every workload untraced and one traced, in quick
// mode, and holds what they emit to BENCHMARK.json.
func TestQuickRuns(t *testing.T) {
	cfg := quickConfig(t)
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var ours, theirs []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	for _, w := range spec.Workloads {
		theirs = append(theirs, w.Name)
	}
	if !slices.Equal(ours, theirs) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", ours, theirs)
	}
	for _, w := range workloads {
		res, _, _ := runOne(cfg, w)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		sameMetrics(t, w.name, res.Metrics, spec.EndToEnd)
	}

	traced := cfg
	traced.trace = filepath.Join(cfg.tmp, "spans.jsonl")
	res, _, prof := runOne(traced, workloads[0])
	if !res.Correct {
		t.Errorf("traced %s: %d of %d operations failed", workloads[0].name, res.Failed, res.Attempted)
	}
	if prof == nil {
		t.Error("traced run recorded no machine profile")
	}
	sameMetrics(t, "traced "+workloads[0].name, res.Metrics, spec.PerLayer)
	layers := make(map[string]bool)
	f, err := os.Open(traced.trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		layers[s.Layer] = true
	}
	for _, l := range []string{"part", "sortalgo", "partsort", "tune", "ws", "extsort", "server", "client", "gen", "trace"} {
		if !layers[l] {
			t.Errorf("no span of layer %s in the trace", l)
		}
	}
}

// TestVerifierRejectsSwappedKey: an output with two keys exchanged is not
// the expected sorted column.
func TestVerifierRejectsSwappedKey(t *testing.T) {
	keys := gen.Uniform[uint64](1000, 0, 3)
	vals := gen.RIDs[uint64](len(keys))
	exp, inSum := sortedCopy(keys), kv.ChecksumPairs(keys, vals)
	partsort.SortLSB(keys, vals, nil)
	if err := checkSort(keys, vals, exp, inSum, true); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	keys[10], keys[11] = keys[11], keys[10]
	vals[10], vals[11] = vals[11], vals[10]
	if checkSort(keys, vals, exp, inSum, true) == nil {
		t.Error("output with two keys swapped was accepted")
	}
}

// TestVerifierRejectsDroppedResponseKey: a response one key short fails
// on both protocols.
func TestVerifierRejectsDroppedResponseKey(t *testing.T) {
	rs, err := buildRequests(gen.Uniform[uint64](reqKeys, 0, 5), 64)
	if err != nil {
		t.Fatal(err)
	}
	exp := rs.exp[0]
	if err := checkKeys(exp, exp); err != nil {
		t.Fatalf("complete HTTP response rejected: %v", err)
	}
	if checkKeys(exp[1:], exp) == nil {
		t.Error("HTTP response missing a key was accepted")
	}
	frame := func(keys []uint64) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{0}, uint32(len(keys)))
		return encodeKeys(b, 64, keys)
	}
	if err := checkFrameKeys(frame(exp), rs.expWire[0]); err != nil {
		t.Fatalf("complete TCP response rejected: %v", err)
	}
	if checkFrameKeys(frame(exp[:len(exp)-1]), rs.expWire[0]) == nil {
		t.Error("TCP response missing a key was accepted")
	}
}
