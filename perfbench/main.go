// Command perfbench is the repository benchmark. It draws GF(2^m)
// multiplier netlists from a seed, runs them through the extraction
// pipeline or an in-process gfred, checks every recovered P(x) against the
// planted one, and prints the metrics BENCHMARK.json names.
//
//	bash perfbench/run.sh --workload mont283 --seed 1 --seconds 25 --trace 0
//
// The next-to-last line of standard output is a report object (provenance,
// drawn polynomials, figures outside BENCHMARK.json); the last line is the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end metrics, measured untraced; with
// --trace 1 they are the per-layer metrics of a traced replay. See
// perfbench/README.md for the workloads and what each metric measures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: mont283, mast571 or gfred-flood")
		seed    = fs.Int64("seed", 1, "seed every input is drawn from")
		seconds = fs.Int("seconds", 25, "how long to measure")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics of a traced replay")
		cold    = fs.String(coldFlag, "", "extract the one EQN design on standard input, named by this value, and report it as JSON (the benchmark runs itself this way)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cold != "" {
		return runCold(*cold, os.Stdin, stdout)
	}
	wl, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		buildDir: ".bench_build",
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds+hardMargin)
	defer cancel()
	out, err := wl.run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.Name, err)
		return 1
	}
	if out.tally.attempted == 0 {
		fmt.Fprintf(stderr, "perfbench: %s: no operation was attempted\n", wl.Name)
		return 1
	}
	defs, values := endToEndMetrics, out.endToEnd
	if cfg.trace {
		defs, values = perLayerMetrics, out.perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", wl.Name, d.Name)
			return 1
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}

	rep := report{
		Workload:    wl.Name,
		Seed:        cfg.seed,
		Seconds:     *seconds,
		Trace:       cfg.trace,
		Loop:        wl.Loop,
		Provenance:  collectProvenance(),
		Polynomials: out.polys,
		EndToEnd:    withUnits(endToEndMetrics, out.endToEnd),
		PerLayer:    withUnits(perLayerMetrics, out.perLayer),
		Extra:       out.extra,
		FailedFrac:  out.tally.failedFrac(),
		Failures:    out.tally.reasons,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]report{"perfbench": rep}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(result{
		Correct:   !out.tally.wrong,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   metrics,
	}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line before the result: everything needed to interpret
// and reproduce the run.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Loop        string                 `json:"loop"`
	Provenance  provenance             `json:"provenance"`
	Polynomials []string               `json:"polynomials"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Extra       map[string]any         `json:"extra,omitempty"`
	FailedFrac  float64                `json:"failed_frac"`
	Failures    []string               `json:"failures,omitempty"`
}

// withUnits pairs measured values with their units, in definition order.
func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	if values == nil {
		return nil
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	return out
}
