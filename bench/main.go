// Command bench is the repository benchmark. It generates every input
// from -seed, times only calls into the public functions of each layer —
// partsort, internal/sortalgo, internal/part, internal/tune,
// internal/extsort, and a child sortd over HTTP and TCP — verifies every
// output, and prints every metric by name with its unit, ending with one
// JSON summary line. BENCHMARK.json at the repository root lists the
// workloads and metrics; README.md beside this file explains them.
//
// From the repository root:
//
//	sh bench/run.sh -workload lsb-dense32 -seed 1 -seconds 10
//	sh bench/run.sh -workload all -seed 1 -out a1.json
//	sh bench/run.sh -workload svc-tcp -seed 1 -trace 1
//	sh bench/run.sh compare -a a1.json,a2.json -b b1.json,b2.json
//
// Exit status: 0 when every operation verified, 1 after printing the
// metrics when any failed, 2 on bad arguments.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	partsort "repro"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// runDoc is the document -out writes: the run's environment and every
// workload's result. compare reads these.
type runDoc struct {
	Seed    uint64  `json:"seed"`
	Commit  string  `json:"commit"`
	Go      string  `json:"go"`
	NumCPU  int     `json:"num_cpu"`
	Seconds float64 `json:"seconds"`
	Quick   bool    `json:"quick"`
	Traced  bool    `json:"traced"`
	// Profile is the calibrated machine profile behind the run's model
	// ratios and auto-tuned sorts (absent when the run calibrated none).
	Profile   *partsort.MachineProfile `json:"profile,omitempty"`
	Workloads map[string]workloadDoc   `json:"workloads"`
}

// workloadDoc is one workload's result and wall time.
type workloadDoc struct {
	WallS float64 `json:"wall_s"`
	// ProbeNs is the measurement's median reading of the host-speed
	// kernel (0 when not taken); Raw the unscaled times and factors.
	ProbeNs float64  `json:"probe_ns"`
	Raw     rawTimes `json:"raw"`
	result
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	wname := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.String("trace", "0", "0: untraced end-to-end run; 1: traced per-layer run with spans in .bench_build/trace-<workload>.jsonl; any other value: the spans file")
	out := fs.String("out", "", "write the run document (environment and every metric) to this JSON file")
	quick := fs.Bool("quick", false, "tiny inputs and 1 s service phases, for the self-test")
	sortd := fs.String("sortd", "", "sortd binary (default: build ./cmd/sortd into .bench_build)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments:", fs.Args())
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg := config{workload: *wname, seed: *seed, seconds: *seconds, quick: *quick, sortd: *sortd, root: root}
	if *trace != "0" && *trace != "" {
		cfg.trace = *trace
	}

	stop := catchSignals()
	defer stop()
	defer runExitHooks()
	defer func() {
		if r := recover(); r != nil {
			runExitHooks()
			panic(r)
		}
	}()

	build := filepath.Join(root, ".bench_build")
	cfg.tmp = filepath.Join(build, "tmp", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	atExit(func() { os.RemoveAll(cfg.tmp) })

	var todo []workload
	if cfg.workload == "all" {
		todo = workloads
	} else if w, ok := findWorkload(cfg.workload); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s, or all)\n", cfg.workload, strings.Join(names, ", "))
		return 2
	}
	if cfg.sortd == "" && (cfg.trace != "" || slices.ContainsFunc(todo, func(w workload) bool { return strings.HasPrefix(w.name, "svc-") })) {
		cfg.sortd = filepath.Join(build, "sortd")
		cmd := exec.Command("go", "build", "-o", cfg.sortd, "./cmd/sortd")
		cmd.Dir, cmd.Stdout, cmd.Stderr = root, os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: build sortd:", err)
			return 1
		}
	}

	doc := runDoc{Seed: cfg.seed, Commit: gitCommit(root), Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		Seconds: cfg.seconds, Quick: cfg.quick, Traced: cfg.trace != "", Workloads: make(map[string]workloadDoc)}
	failed := false
	if len(todo) == 1 {
		res, wd, prof := runOne(cfg, todo[0])
		doc.Workloads[todo[0].name], doc.Profile = wd, prof
		printResult(todo[0].name, res)
		failed = !res.Correct
	} else {
		failed = runAll(cfg, todo, &doc) != nil
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runOne runs one workload in this process.
func runOne(cfg config, w workload) (result, workloadDoc, *partsort.MachineProfile) {
	specs := e2eMetrics
	if cfg.trace != "" {
		specs = layerMetrics()
		if cfg.trace == "1" {
			cfg.trace = filepath.Join(cfg.root, ".bench_build", "trace-"+w.name+".jsonl")
		}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	e := &env{cfg: cfg, rec: newRecorder(specs), threads: runtime.NumCPU(), host: newHostSpeed(runtime.NumCPU(), w.kernel)}
	start := time.Now()
	if err := runWorkload(e, w); err != nil {
		e.rec.op("write spans", err)
	}
	res := e.rec.result()
	wd := workloadDoc{WallS: time.Since(start).Seconds(), Raw: e.raw, result: res}
	if wd.ProbeNs = e.host.reading(); math.IsNaN(wd.ProbeNs) {
		wd.ProbeNs = 0
	}
	return res, wd, e.prof
}

// runAll re-executes this binary once per workload, so heap state and
// peak RSS stay per workload, and merges their documents into doc.
func runAll(cfg config, todo []workload, doc *runDoc) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var errs []error
	for _, w := range todo {
		part := filepath.Join(cfg.tmp, w.name+".json")
		trace := cfg.trace
		switch trace {
		case "":
			trace = "0"
		case "1":
		default: // one spans file per workload: trace.jsonl -> trace.<workload>.jsonl
			trace = strings.TrimSuffix(trace, filepath.Ext(trace)) + "." + w.name + filepath.Ext(trace)
		}
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-out", part,
			"-quick=" + strconv.FormatBool(cfg.quick), "-trace", trace}
		if cfg.sortd != "" {
			args = append(args, "-sortd", cfg.sortd)
		}
		cmd := exec.Command(self, args...)
		cmd.Dir, cmd.Stdout, cmd.Stderr = cfg.root, os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.name, err))
		}
		var sub runDoc
		if err := readJSON(part, &sub); err != nil {
			errs = append(errs, err)
			continue
		}
		doc.Workloads[w.name] = sub.Workloads[w.name]
		if sub.Profile != nil {
			doc.Profile = sub.Profile
		}
	}
	return errors.Join(errs...)
}

// printResult prints every metric by name with its unit, then the JSON
// summary as the last line.
func printResult(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%s %s %.6g %s\n", workload, n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // metric values are finite by construction (recorder.set)
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
