package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is BENCHMARK.json's workload and metric lists.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric of BENCHMARK.json; per-layer metrics have no
// bound.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root.
func loadSpec() (benchmarkSpec, error) {
	var s benchmarkSpec
	root, err := findRoot()
	if err != nil {
		return s, err
	}
	err = readJSON(filepath.Join(root, "BENCHMARK.json"), &s)
	return s, err
}

// verdict judges candidate values b against baseline values a for one
// metric: unresolved when either side's quartile spread, as a share of its
// median, exceeds the bound; otherwise worse or better when the medians
// differ by more than the bound in that direction, else within.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (string, float64) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	change := (mb - ma) / ma
	if (q3a-q1a)/ma > bound || (q3b-q1b)/mb > bound {
		return "unresolved", change
	}
	worse := change
	if !lowerIsBetter {
		worse = -change
	}
	switch {
	case worse > bound:
		return "worse", change
	case worse < -bound:
		return "better", change
	}
	return "within", change
}

// compareMain prints, for every (workload, end-to-end metric) pair, each
// side's median and quartiles over its run documents and the verdict
// under BENCHMARK.json's bounds. Exit status 1 when any pair is worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	aList := fs.String("a", "", "baseline run documents (-out files), comma-separated")
	bList := fs.String("b", "", "candidate run documents, comma-separated")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *aList == "" || *bList == "" || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: bench compare -a a1.json[,a2.json...] -b b1.json[,b2.json...]")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	load := func(list string) ([]runDoc, error) {
		var docs []runDoc
		for _, p := range strings.Split(list, ",") {
			var d runDoc
			if err := readJSON(p, &d); err != nil {
				return nil, err
			}
			docs = append(docs, d)
		}
		return docs, nil
	}
	as, err := load(*aList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	bs, err := load(*bList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	values := func(docs []runDoc, workload, metric string) []float64 {
		var xs []float64
		for _, d := range docs {
			if m, ok := d.Workloads[workload].Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median [q1, q3]\tb median [q1, q3]\tchange\tbound\tverdict")
	worse := false
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(as, w.Name, m.Name), values(bs, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d runs\t%d runs\t\t%.0f%%\tmissing\n", w.Name, m.Name, len(a), len(b), m.Bound*100)
				continue
			}
			v, change := verdict(a, b, m.Better == "lower", m.Bound)
			worse = worse || v == "worse"
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(b)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, ma, q1a, q3a, m.Unit, mb, q1b, q3b, m.Unit, change*100, m.Bound*100, v)
		}
	}
	tw.Flush()
	if worse {
		return 1
	}
	return 0
}
