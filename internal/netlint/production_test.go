package netlint

// The production-size predictor checks live in this file, which sorts after
// perf_test.go: the m=571 design they build leaves a heap that would skew
// the wall-clock guard there if it ran first.

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
)

// TestDegreeBoundAtProductionSizes pins degreeBound at the support of a
// clean GF(2^m) multiplier cone (2m inputs, degree 2): the bound is
// mixSlack·(1 + 2m + C(2m, 2)), with no saturation from guarding a
// binomial past the last term.
func TestDegreeBoundAtProductionSizes(t *testing.T) {
	for _, m := range []int{163, 233, 283, 571} {
		supp := 2 * m
		want := mixSlack * (1 + supp + supp*(supp-1)/2)
		if got := degreeBound(supp, 2); got != want {
			t.Errorf("m=%d: degreeBound(%d, 2) = %d, want %d", m, supp, got, want)
		}
	}
	if got := degreeBound(566, 2); got != 641848 {
		t.Errorf("degreeBound(566, 2) = %d, want 641848", got)
	}
}

// benchPeaks reads the per-bit actual rewriting peaks and the polynomial
// of a committed BENCH file at the repository root.
func benchPeaks(t *testing.T, file string) (gf2poly.Poly, []int) {
	t.Helper()
	raw, err := os.ReadFile("../../" + file)
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		P    string `json:"p"`
		Bits []struct {
			Bit  int `json:"bit"`
			Peak int `json:"peak"`
		} `json:"bits"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	p, err := gf2poly.Parse(bench.P)
	if err != nil {
		t.Fatal(err)
	}
	peaks := make([]int, len(bench.Bits))
	for _, b := range bench.Bits {
		peaks[b.Bit] = b.Peak
	}
	return p, peaks
}

// TestConeCostBoundsAtProductionSizes checks the predictor at production
// sizes against the per-bit peaks recorded in the BENCH files: every
// prediction is an upper bound, no cone saturates or draws a blowup-risk
// warning, and each cone reports the tighter of the two bounds. The
// syntactic term bound wins on every Mastrovito cone and on Montgomery
// with the m=233 trinomial, whose cones stay small; the degree bound wins
// on Montgomery at m=571, where the term bound explodes.
func TestConeCostBoundsAtProductionSizes(t *testing.T) {
	for _, tc := range []struct {
		file   string
		build  func(int, gf2poly.Poly) (*netlist.Netlist, error)
		method string
	}{
		{"BENCH_mastrovito_m233.json", gen.Mastrovito, "term-bound"},
		{"BENCH_montgomery_m233.json", gen.Montgomery, "term-bound"},
		{"BENCH_montgomery_m571.json", gen.Montgomery, "degree"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			p, peaks := benchPeaks(t, tc.file)
			if p.Deg() > 233 && testing.Short() {
				t.Skip("m=571: skipped in -short")
			}
			n, err := tc.build(p.Deg(), p)
			if err != nil {
				t.Fatal(err)
			}
			rep := Analyze(n, Options{RequireMultiplier: true})
			if rep.HasErrors() {
				t.Fatalf("clean design lint errors: %+v", rep.Findings)
			}
			for _, f := range rep.Findings {
				if f.Rule == "blowup-risk" {
					t.Errorf("clean design flagged: %s", f.Message)
				}
			}
			if len(rep.Cones) != len(peaks) {
				t.Fatalf("%d predicted cones, %d BENCH bits", len(rep.Cones), len(peaks))
			}
			for i, cc := range rep.Cones {
				if cc.Method != tc.method || cc.Saturated {
					t.Errorf("cone %s: bound method %q (saturated %v), want %q",
						cc.Name, cc.Method, cc.Saturated, tc.method)
				}
				if cc.PredictedPeakTerms < peaks[i] {
					t.Errorf("cone %s: predicted peak %d < actual peak %d", cc.Name, cc.PredictedPeakTerms, peaks[i])
				}
			}
		})
	}
}
