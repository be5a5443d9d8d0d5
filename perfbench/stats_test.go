package main

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		value      float64
		percentile float64
		beyond     int
	}{
		{n: 1, value: 1, percentile: 100, beyond: 0},
		{n: 10, value: 10, percentile: 100, beyond: 0},
		{n: 11, value: 1, percentile: 100.0 / 11, beyond: 10},
		{n: 30, value: 20, percentile: 100.0 * 20 / 30, beyond: 10},
		{n: 1000, value: 990, percentile: 99, beyond: 10},
	} {
		got := tailOf(seq(tc.n))
		if got.Value != tc.value || got.Percentile != tc.percentile || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("tailOf(%d samples) = %+v, want value %v at p%v with %d beyond", tc.n, got, tc.value, tc.percentile, tc.beyond)
		}
		// The rule itself: exactly tailMin samples lie above the value.
		above := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				above++
			}
		}
		if above != got.Beyond {
			t.Errorf("tailOf(%d samples): %d samples above %v, reported %d", tc.n, above, got.Value, got.Beyond)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("tailOf(nil) = %+v, want zero", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if median(nil) != 0 || mean(nil) != 0 || ratio(1, 0) != 0 {
		t.Error("empty inputs must read 0")
	}
}

func TestFailureCounting(t *testing.T) {
	var tl tally
	tl.ok()
	tl.ok()
	recordFailure(&tl, errors.New("extraction timed out"))
	if tl.wrong {
		t.Fatal("an error without a result must not mark the run incorrect")
	}
	recordFailure(&tl, fmt.Errorf("design 3: %w: recovered x^16+x+1", errWrongPoly))
	if !tl.wrong {
		t.Fatal("a wrong P(x) must mark the run incorrect")
	}
	if tl.attempted != 4 || tl.failed != 2 || tl.failedFrac() != 0.5 {
		t.Fatalf("tally = %+v, want 4 attempted, 2 failed", tl)
	}

	var sum tally
	sum.ok()
	sum.merge(&tl)
	if sum.attempted != 5 || sum.failed != 2 || !sum.wrong || len(sum.reasons) != 2 {
		t.Fatalf("merged tally = %+v", sum)
	}

	var many tally
	for i := 0; i < 3*maxReasons; i++ {
		many.fail("x")
	}
	if len(many.reasons) != maxReasons || many.failed != 3*maxReasons {
		t.Fatalf("reasons must be capped, counts not: %+v", many)
	}
}

func TestJudgeRefusal(t *testing.T) {
	for _, tc := range []struct {
		code int
		ok   bool
	}{
		{http.StatusTooManyRequests, true},
		{http.StatusAccepted, false},
		{http.StatusUnprocessableEntity, false},
		{http.StatusInternalServerError, false},
	} {
		if err := judgeRefusal(3, tc.code); (err == nil) != tc.ok {
			t.Errorf("judgeRefusal(3, %d) = %v, want ok=%v", tc.code, err, tc.ok)
		}
	}
}
