package obs

import "sort"

// The cone anomaly stage compares each finished cone's ACTUAL peak term
// count against the cost the netlint predictor computed STATICALLY before
// rewriting began. The predictor's bound is a no-cancellation worst case, so
// actual ≤ predicted always holds on well-formed multipliers — and the
// actual sits far below it, because mod-2 cancellation (the paper's central
// phenomenon, Theorem 2's per-cone independence of it) collapses the
// intermediate polynomial at almost every substitution. A cone whose actual
// peak APPROACHES its predicted bound is therefore a cone where cancellation
// failed to fire: tampered logic, a trojan payload, or a structure that is
// not field arithmetic at all. That is exactly the per-cone cost skew an
// operator must see live to steer budgets.
//
// How close is "too close" depends on the architecture: Montgomery and
// synthesized designs cancel massively (healthy ratios of a few percent),
// while Mastrovito cones track their bound exactly (a healthy ratio of
// 100%). The detector therefore anchors every verdict on the MEDIAN ratio
// of the cones finished so far — the healthy population calibrates the
// baseline, and only cones that stick out of it are flagged. The first
// anomalyMinSamples cones are a warm-up: they only feed the median, so a lone
// tampered cone among them is still caught once its ratio towers over the
// settled median of its siblings (cone order is randomized by the
// scheduler, and one outlier barely moves a median).

// The detector's thresholds.
const (
	// anomalyMinPredicted ignores cones whose predicted peak is below it:
	// tiny cones (low output bits of a Mastrovito multiplier) trivially reach
	// their two-term bound without meaning anything.
	anomalyMinPredicted = 256
	// anomalyAbsRatio flags a cone when actual/predicted reaches it WHILE the
	// median ratio sits below it — i.e. cancellation is the norm here, and
	// this cone has essentially none. On architectures whose healthy median
	// itself reaches it (Mastrovito cones track their bound exactly) this
	// test self-disarms; only the relative test can fire there.
	anomalyAbsRatio = 0.5
	// anomalyRelFactor flags a cone whose ratio exceeds this many times the
	// median ratio of the cones finished so far — the "one fat cone among
	// healthy siblings" signature of a localized trojan.
	anomalyRelFactor = 8
	// anomalyMinRatio is the floor under which the relative test never
	// fires: on heavy-cancellation designs healthy ratios scatter across an
	// order of magnitude around a sub-percent median, so the relative factor
	// alone would flag noise. A cone must burn at least this fraction of its
	// bound before sticking out of the median means anything.
	anomalyMinRatio = 0.05
	// anomalyMinSamples is how many cones must finish before verdicts are
	// issued (the median needs support). Cones finishing during the warm-up
	// are buffered and judged retroactively the moment the detector arms, so
	// an early-finishing tampered cone is still flagged.
	anomalyMinSamples = 8
)

// anomalyDetector holds the armed predictions and the running ratio sample.
type anomalyDetector struct {
	pred   map[int]int64 // output bit -> predicted peak terms
	ratios []float64     // actual/predicted of finished cones, arrival order
	warmup []coneSample  // cones finished during the warm-up, judged at arming
}

// coneSample is one finished cone awaiting (or under) an anomaly verdict.
type coneSample struct {
	bit       int
	name      string
	peak      int64
	predicted int64
	ratio     float64
}

// EnableConeAnomalies arms the anomaly stage with per-bit predicted peak
// term counts (normally netlint's ConeCost predictions, wired by the
// extract preflight). Every subsequent BitFinish compares actual vs
// predicted; anomalous cones emit a cone_anomaly event and bump the
// cone_anomalies counter. Passing an empty map disarms the stage.
func (r *Recorder) EnableConeAnomalies(pred map[int]int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(pred) == 0 {
		r.anom = nil
	} else {
		cp := make(map[int]int64, len(pred))
		for k, v := range pred {
			cp[k] = v
		}
		r.anom = &anomalyDetector{pred: cp}
	}
	r.mu.Unlock()
}

// checkConeAnomaly runs inside BitFinish: decide under r.mu, emit outside it
// (emitEvent takes emitMu; the two locks never nest the other way).
func (r *Recorder) checkConeAnomaly(bs BitStats) {
	r.mu.Lock()
	det := r.anom
	if det == nil {
		r.mu.Unlock()
		return
	}
	predicted, ok := det.pred[bs.Bit]
	if !ok || predicted < anomalyMinPredicted {
		r.mu.Unlock()
		return
	}
	ratio := float64(bs.PeakTerms) / float64(predicted)
	det.ratios = append(det.ratios, ratio)
	cur := coneSample{
		bit: bs.Bit, name: bs.Name,
		peak: int64(bs.PeakTerms), predicted: predicted, ratio: ratio,
	}
	var flagged []coneSample
	var med float64
	if len(det.ratios) < anomalyMinSamples {
		// Warm-up: the median has no support yet. Buffer the cone; it is
		// judged retroactively the moment the detector arms.
		det.warmup = append(det.warmup, cur)
	} else {
		med = median(det.ratios)
		// At the arming moment det.warmup still holds the early finishers;
		// afterwards it is empty and only cur is judged.
		for _, c := range append(det.warmup, cur) {
			if anomalous(c.ratio, med) {
				flagged = append(flagged, c)
			}
		}
		det.warmup = nil
	}
	r.mu.Unlock()

	for _, c := range flagged {
		r.Metrics().Counter("cone_anomalies").Inc()
		r.Emit(EvConeAnomaly, c.name, map[string]int64{
			"bit":        int64(c.bit),
			"peak":       c.peak,
			"predicted":  c.predicted,
			"ratio_pct":  int64(c.ratio * 100),
			"median_pct": int64(med * 100),
		})
	}
}

// anomalous is the verdict rule: a cone is flagged when its ratio towers
// over the population median (anomalyRelFactor), or when it reached the
// absolute no-cancellation threshold on an architecture whose median proves
// that healthy cones do cancel (median below anomalyAbsRatio).
func anomalous(ratio, med float64) bool {
	rel := med > 0 && ratio >= anomalyRelFactor*med && ratio >= anomalyMinRatio
	abs := ratio >= anomalyAbsRatio && med < anomalyAbsRatio
	return rel || abs
}

// median of a sample (0 when empty); the sample is copied, not reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if len(cp)%2 == 1 {
		return cp[len(cp)/2]
	}
	return (cp[len(cp)/2-1] + cp[len(cp)/2]) / 2
}
