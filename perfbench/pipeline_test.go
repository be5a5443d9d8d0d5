package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestReplayAgreesWithExtract is the traced replay's faithfulness check at
// small sizes: on both architectures, the replay recovers the planted
// P(x), and matches Extract's P(x), per-bit substitutions and suggested
// budget.
func TestReplayAgreesWithExtract(t *testing.T) {
	ctx := context.Background()
	st := newDrawer(5).stream("replay-test")
	var lay layers
	for _, m := range []int{16, 64} {
		for _, arch := range []string{mastrovito, montgomery} {
			d, err := st.next(arch, m)
			if err != nil {
				t.Fatal(err)
			}
			r, err := replayDesign(ctx, d)
			if err != nil {
				t.Fatalf("%s: replay: %v", d.Name, err)
			}
			ext, took, err := extractDesign(ctx, d)
			if err := checkExtraction(d, ext, err); err != nil {
				t.Fatal(err)
			}
			if err := faithful(r, ext); err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
			if r.Parse <= 0 || r.Lint <= 0 || r.Rewrite <= 0 || r.spans() > r.Wall {
				t.Fatalf("%s: implausible layer times %+v", d.Name, r)
			}
			lay.addReplay(r, took)
			lay.builds = append(lay.builds, d.Build.Seconds())
		}
	}
	got := lay.metrics()
	for _, def := range perLayerMetrics {
		if _, ok := got[def.Name]; !ok {
			t.Errorf("per-layer metric %s not computed", def.Name)
		}
	}
	if got["rewrite.substitutions"] <= 0 || got["rewrite.useful_frac"] <= 0 || got["rewrite.useful_frac"] > 1 {
		t.Errorf("rewrite counters: %v substitutions, useful_frac %v", got["rewrite.substitutions"], got["rewrite.useful_frac"])
	}
}

// TestFaithfulRejectsDivergence flips each compared quantity in turn.
func TestFaithfulRejectsDivergence(t *testing.T) {
	ctx := context.Background()
	d, err := newDrawer(9).stream("faithful-test").next(mastrovito, 16)
	if err != nil {
		t.Fatal(err)
	}
	r, err := replayDesign(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	ext, _, err := extractDesign(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	r.Result.Bits[3].Substitutions++
	if faithful(r, ext) == nil {
		t.Error("a substitution count mismatch passed")
	}
	r.Result.Bits[3].Substitutions--
	r.Report.SuggestedBudgetTerms++
	if faithful(r, ext) == nil {
		t.Error("a budget mismatch passed")
	}
	r.Report.SuggestedBudgetTerms--
	if err := faithful(r, ext); err != nil {
		t.Errorf("restored replay: %v", err)
	}
}

// TestFloodSmall runs the gfred flood for two seconds on small designs:
// the well tenant's jobs come back with the planted P(x), the greedy
// tenant's first upload is admitted and the rest refused.
func TestFloodSmall(t *testing.T) {
	cfg := config{seed: 1, seconds: 2 * time.Second, buildDir: t.TempDir()}
	dr := newDrawer(1)
	ws, gs := dr.stream("well"), dr.stream("greedy")
	var well, greedy []*design
	for i := 0; i < 60; i++ {
		d, err := ws.next([]string{mastrovito, montgomery}[i%2], 32)
		if err != nil {
			t.Fatal(err)
		}
		well = append(well, d)
	}
	for i := 0; i < 40; i++ {
		d, err := gs.next(montgomery, 24)
		if err != nil {
			t.Fatal(err)
		}
		greedy = append(greedy, d)
	}
	var tl tally
	f, err := runFlood(context.Background(), cfg, well, greedy, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.wrong {
		t.Fatalf("flood failures: %+v", tl)
	}
	if len(f.Jobs) == 0 || len(f.Rejects) == 0 || f.WellSent != len(f.Jobs) || f.GreedySent != len(f.Rejects)+1 {
		t.Fatalf("flood: %d jobs of %d sent, %d rejects of %d greedy uploads", len(f.Jobs), f.WellSent, len(f.Rejects), f.GreedySent)
	}
	for _, j := range f.Jobs {
		if j.queueWait() < 0 || j.run() <= 0 || j.Latency < j.Submit {
			t.Fatalf("implausible job timing %+v", j)
		}
	}
	if ents, err := os.ReadDir(cfg.buildDir); err != nil || len(ents) != 0 {
		t.Fatalf("spool left behind: %v %v", ents, err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code's metric and
// workload lists the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].Name)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(file), len(code))
		}
		for i := range file {
			if file[i].Name != code[i].Name || file[i].Unit != code[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %v, code %v", kind, i, file[i], code[i])
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEndMetrics)
	check("per_layer", bench.PerLayer, perLayerMetrics)
}
