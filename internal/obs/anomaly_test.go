package obs

import (
	"testing"
	"time"
)

// finishBit drives one cone through BitFinish with the given actual peak.
func finishBit(rec *Recorder, bit int, peak int) {
	rec.BitFinish(BitStats{
		Bit:       bit,
		Name:      "z" + string(rune('0'+bit%10)),
		PeakTerms: peak,
		Duration:  time.Millisecond,
	})
}

// TestAnomalyAbsoluteThreshold: once the median proves the design cancels
// (healthy cones at 10% of bound), a cone reaching the absolute threshold
// is flagged even though it stays under RelFactor times the median.
func TestAnomalyAbsoluteThreshold(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)
	pred := map[int]int64{}
	for bit := 0; bit < 9; bit++ {
		pred[bit] = 10000
	}
	rec.EnableConeAnomalies(pred)

	for bit := 0; bit < 8; bit++ {
		finishBit(rec, bit, 1000) // 10% of bound: healthy, arms the median
	}
	finishBit(rec, 8, 6000) // 60%: under 8x the 10% median, over AbsRatio

	anoms := mem.ByType(EvConeAnomaly)
	if len(anoms) != 1 {
		t.Fatalf("anomalies: %d, want 1", len(anoms))
	}
	e := anoms[0]
	if e.V["bit"] != 8 || e.V["peak"] != 6000 || e.V["predicted"] != 10000 {
		t.Fatalf("anomaly payload: %+v", e.V)
	}
	if e.V["ratio_pct"] != 60 || e.V["median_pct"] != 10 {
		t.Fatalf("ratio_pct = %d median_pct = %d, want 60/10", e.V["ratio_pct"], e.V["median_pct"])
	}
	if got := rec.Snapshot().Counters["cone_anomalies"]; got != 1 {
		t.Fatalf("cone_anomalies counter = %d", got)
	}
}

// TestAnomalyTightBoundMedianSelfDisarms: Mastrovito-style cones track
// their no-cancellation bound exactly, so a healthy run sits at 100%
// across the board — the absolute test must self-disarm on that median
// instead of flagging every cone.
func TestAnomalyTightBoundMedianSelfDisarms(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)
	pred := map[int]int64{}
	for bit := 0; bit < 12; bit++ {
		pred[bit] = 1000
	}
	rec.EnableConeAnomalies(pred)
	for bit := 0; bit < 12; bit++ {
		finishBit(rec, bit, 1000) // exactly the bound, like its siblings
	}
	if n := len(mem.ByType(EvConeAnomaly)); n != 0 {
		t.Fatalf("tight-bound architecture flagged %d healthy cones", n)
	}
}

// TestAnomalyWarmupJudgedRetroactively: a tampered cone that finishes
// before the median has support is flagged the moment the detector arms.
func TestAnomalyWarmupJudgedRetroactively(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)
	pred := map[int]int64{}
	for bit := 0; bit < 9; bit++ {
		pred[bit] = 10000
	}
	rec.EnableConeAnomalies(pred)

	finishBit(rec, 0, 6000) // the fat cone lands first
	for bit := 1; bit < 7; bit++ {
		finishBit(rec, bit, 500) // healthy siblings at 5%
	}
	if n := len(mem.ByType(EvConeAnomaly)); n != 0 {
		t.Fatalf("flagged during warm-up: %d", n)
	}
	finishBit(rec, 7, 500) // 8th sample arms the detector
	anoms := mem.ByType(EvConeAnomaly)
	if len(anoms) != 1 || anoms[0].V["bit"] != 0 {
		t.Fatalf("warm-up cone not retro-flagged: %+v", anoms)
	}
}

// TestAnomalyRelativeToMedian: one fat cone among many healthy siblings trips
// the relative test even below the absolute threshold.
func TestAnomalyRelativeToMedian(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)
	pred := map[int]int64{}
	for bit := 0; bit < 10; bit++ {
		pred[bit] = 100000
	}
	rec.EnableConeAnomalies(pred)

	// Eight healthy cones at 1% of bound arm the median.
	for bit := 0; bit < 8; bit++ {
		finishBit(rec, bit, 1000)
	}
	if n := len(mem.ByType(EvConeAnomaly)); n != 0 {
		t.Fatalf("healthy cones flagged: %d", n)
	}
	// 10% of bound is far below AbsRatio 0.5 but 10x the 1% median.
	finishBit(rec, 8, 10000)
	anoms := mem.ByType(EvConeAnomaly)
	if len(anoms) != 1 {
		t.Fatalf("relative anomaly not flagged (got %d)", len(anoms))
	}
	if anoms[0].V["median_pct"] != 1 {
		t.Fatalf("median_pct = %d, want 1", anoms[0].V["median_pct"])
	}
	// Another healthy sibling afterwards stays clean.
	finishBit(rec, 9, 1200)
	if n := len(mem.ByType(EvConeAnomaly)); n != 1 {
		t.Fatalf("healthy cone after anomaly flagged: %d total", n)
	}
}

// TestAnomalyMinRatioFloor: on heavy-cancellation designs healthy ratios
// scatter around a sub-percent median; a cone at 10x the median but still
// a fraction of a percent of its bound is noise, not tampering.
func TestAnomalyMinRatioFloor(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)
	pred := map[int]int64{}
	for bit := 0; bit < 10; bit++ {
		pred[bit] = 1000000
	}
	rec.EnableConeAnomalies(pred)
	for bit := 0; bit < 8; bit++ {
		finishBit(rec, bit, 200) // 0.02% of bound
	}
	finishBit(rec, 8, 2000) // 0.2%: 10x the median, far below MinRatio
	if n := len(mem.ByType(EvConeAnomaly)); n != 0 {
		t.Fatalf("sub-floor relative outlier flagged: %d", n)
	}
	finishBit(rec, 9, 60000) // 6%: 300x the median and above the 5% floor
	if n := len(mem.ByType(EvConeAnomaly)); n != 1 {
		t.Fatalf("above-floor outlier not flagged: %d", n)
	}
}

// TestAnomalyMinPredictedFloor: trivially small cones reach their bound
// without meaning anything and must never be flagged.
func TestAnomalyMinPredictedFloor(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)
	rec.EnableConeAnomalies(map[int]int64{0: 2, 1: 100})

	finishBit(rec, 0, 2)   // 100% of a 2-term bound: below MinPredicted, skip
	finishBit(rec, 1, 100) // 100% of a 100-term bound: still below 256, skip
	if n := len(mem.ByType(EvConeAnomaly)); n != 0 {
		t.Fatalf("sub-floor cones flagged: %d", n)
	}
}

// TestAnomalyUnpredictedBitSkipped: bits the predictor never scored pass
// through silently.
func TestAnomalyUnpredictedBitSkipped(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)
	rec.EnableConeAnomalies(map[int]int64{0: 10000})
	finishBit(rec, 7, 999999)
	if n := len(mem.ByType(EvConeAnomaly)); n != 0 {
		t.Fatalf("unpredicted bit flagged: %d", n)
	}
}

// TestAnomalyDisarm: an empty map disarms the stage.
func TestAnomalyDisarm(t *testing.T) {
	mem := NewMemorySink()
	rec := NewRecorder(mem)
	rec.EnableConeAnomalies(map[int]int64{0: 10000})
	rec.EnableConeAnomalies(nil)
	finishBit(rec, 0, 9999)
	if n := len(mem.ByType(EvConeAnomaly)); n != 0 {
		t.Fatalf("disarmed stage flagged: %d", n)
	}
}
