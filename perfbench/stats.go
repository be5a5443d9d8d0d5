package main

import (
	"math"
	"sort"
)

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the middle value of xs, averaging the two middle values
// of an even count (0 for none).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailMin is the number of samples that must lie beyond a reported tail
// percentile.
const tailMin = 10

// tail is a latency tail: the highest percentile with at least tailMin
// samples beyond it.
type tail struct {
	Value float64 `json:"value"`
	// Percentile is the share of samples at or below Value, in percent.
	Percentile float64 `json:"percentile"`
	// Beyond is the number of samples above the percentile's rank.
	Beyond int `json:"beyond"`
	// Samples is the sample count.
	Samples int `json:"samples"`
}

// tailOf picks the sample of rank n-tailMin (1-based, ascending): exactly
// tailMin samples rank beyond it, and no higher rank leaves that many. With
// tailMin samples or fewer no percentile qualifies; the maximum is reported
// with Percentile 100 and Beyond 0 so the shortfall shows.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	if n <= tailMin {
		return tail{Value: s[n-1], Percentile: 100, Beyond: 0, Samples: n}
	}
	rank := n - tailMin
	return tail{Value: s[rank-1], Percentile: 100 * float64(rank) / float64(n), Beyond: tailMin, Samples: n}
}

// tally counts operations attempted and failed. An operation fails when it
// errors, times out, or returns a wrong or unverified result; a wrong P(x)
// also marks the whole run incorrect.
type tally struct {
	attempted, failed int
	wrong             bool
	reasons           []string
}

// maxReasons bounds the failure messages kept for the report.
const maxReasons = 8

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(reason string) {
	t.attempted++
	t.failed++
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, reason)
	}
}

// wrongResult records an operation whose output was wrong: it fails, and
// the run is no longer correct.
func (t *tally) wrongResult(reason string) {
	t.fail(reason)
	t.wrong = true
}

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

// merge adds another tally's counts into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong = t.wrong || o.wrong
	for _, r := range o.reasons {
		if len(t.reasons) < maxReasons {
			t.reasons = append(t.reasons, r)
		}
	}
}
