package main

import "time"

// layers accumulates the per-layer readings of a traced run.
type layers struct {
	builds   []float64 // gen.build_s per design built
	replays  []*replay
	untraced []float64 // seconds of the untraced extraction paired with each replay
	source   []float64 // netlint.AnalyzeSource seconds
	jobs     []*jobTiming
}

// addReplay records one replay together with the untraced extraction of
// the same design that checked it.
func (l *layers) addReplay(r *replay, untraced time.Duration) {
	l.replays = append(l.replays, r)
	l.untraced = append(l.untraced, untraced.Seconds())
}

// perDesign returns the mean over replays of f.
func (l *layers) perDesign(f func(*replay) float64) float64 {
	xs := make([]float64, len(l.replays))
	for i, r := range l.replays {
		xs[i] = f(r)
	}
	return mean(xs)
}

// perJob returns the mean over well jobs of f, in seconds.
func (l *layers) perJob(f func(*jobTiming) time.Duration) float64 {
	xs := make([]float64, len(l.jobs))
	for i, j := range l.jobs {
		xs[i] = f(j).Seconds()
	}
	return mean(xs)
}

func secs(d time.Duration) float64 { return d.Seconds() }

// metrics computes every per-layer metric. A layer the workload never
// reached reads 0.
func (l *layers) metrics() map[string]float64 {
	m := map[string]float64{
		"gen.build_s":          mean(l.builds),
		"netlist.parse_s":      l.perDesign(func(r *replay) float64 { return secs(r.Parse) }),
		"checkpoint.hash_s":    l.perDesign(func(r *replay) float64 { return secs(r.Hash) }),
		"sem.analyze_s":        l.perDesign(func(r *replay) float64 { return secs(r.Sem) }),
		"netlint.analyze_s":    l.perDesign(func(r *replay) float64 { return secs(r.Lint) }),
		"netlint.source_s":     mean(l.source),
		"rewrite.outputs_s":    l.perDesign(func(r *replay) float64 { return secs(r.Rewrite) }),
		"extract.algorithm2_s": l.perDesign(func(r *replay) float64 { return secs(r.Algorithm2) }),
		"extract.golden_s":     l.perDesign(func(r *replay) float64 { return secs(r.Golden) }),
		"extract.verify_s":     l.perDesign(func(r *replay) float64 { return secs(r.Verify) }),
		"rewrite.alloc_mb":     l.perDesign(func(r *replay) float64 { return float64(r.AllocBytes) / (1 << 20) }),
		"rewrite.gc_cycles":    l.perDesign(func(r *replay) float64 { return float64(r.GCCycles) }),
	}

	var subs, gates float64
	var overestimates []float64
	m["netlint.saturated_cones"] = l.perDesign(func(r *replay) float64 {
		n := 0
		for _, c := range r.Report.Cones {
			if c.Saturated {
				n++
			}
		}
		return float64(n)
	})
	m["netlint.degree_cones"] = l.perDesign(func(r *replay) float64 {
		n := 0
		for _, c := range r.Report.Cones {
			if c.Method == "degree" {
				n++
			}
		}
		return float64(n)
	})
	m["netlint.blowup_warnings"] = l.perDesign(func(r *replay) float64 {
		n := 0
		for _, f := range r.Report.Findings {
			if f.Rule == "blowup-risk" {
				n++
			}
		}
		return float64(n)
	})
	m["rewrite.cone_cpu_s"] = l.perDesign(func(r *replay) float64 {
		var cpu time.Duration
		for _, b := range r.Result.Bits {
			cpu += b.Runtime
		}
		return secs(cpu)
	})
	m["rewrite.slowest_cone_s"] = l.perDesign(func(r *replay) float64 {
		var slowest time.Duration
		for _, b := range r.Result.Bits {
			slowest = max(slowest, b.Runtime)
		}
		return secs(slowest)
	})
	m["rewrite.peak_terms"] = l.perDesign(func(r *replay) float64 { return float64(maxPeak(r)) })
	m["rewrite.substitutions"] = l.perDesign(func(r *replay) float64 { return float64(r.Result.TotalSubstitutions()) })
	m["rewrite.cone_gates"] = l.perDesign(func(r *replay) float64 { return float64(coneGates(r)) })
	m["rewrite.cancelled"] = l.perDesign(func(r *replay) float64 {
		c := 0
		for _, b := range r.Result.Bits {
			c += b.Cancelled
		}
		return float64(c)
	})
	for _, r := range l.replays {
		subs += float64(r.Result.TotalSubstitutions())
		gates += float64(coneGates(r))
		overestimates = append(overestimates, ratio(float64(r.Report.MaxPredictedPeak()), float64(maxPeak(r))))
	}
	m["rewrite.useful_frac"] = ratio(subs, gates)
	m["netlint.peak_overestimate"] = median(overestimates)

	m["server.submit_s"] = l.perJob(func(j *jobTiming) time.Duration { return j.Submit })
	m["server.queue_wait_s"] = l.perJob((*jobTiming).queueWait)
	m["server.run_s"] = l.perJob((*jobTiming).run)
	m["server.overhead_s"] = l.perJob((*jobTiming).overhead)
	m["server.notify_s"] = l.perJob((*jobTiming).notify)

	// The untraced extraction runs after the replay and finds the semantic
	// sweep in the content-hash cache, so the sweep is left out of the
	// traced side as well.
	var traced, untraced, inside, wall float64
	for i, r := range l.replays {
		traced += secs(r.Wall - r.Sem)
		untraced += l.untraced[i]
		inside += secs(r.spans())
		wall += secs(r.Wall)
	}
	m["trace.overhead_frac"] = ratio(traced-untraced, untraced)
	m["trace.unattributed_frac"] = ratio(wall-inside, wall)
	return m
}

// coneGates sums the fanin-cone sizes of every output bit.
func coneGates(r *replay) int {
	g := 0
	for _, b := range r.Result.Bits {
		g += b.ConeGates
	}
	return g
}

// maxPeak is the largest intermediate polynomial any cone reached.
func maxPeak(r *replay) int {
	peak := 0
	for _, b := range r.Result.Bits {
		peak = max(peak, b.PeakTerms)
	}
	return peak
}
