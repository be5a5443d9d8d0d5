package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/galoisfield/gfre/internal/server"
)

// config is one benchmark run's settings.
type config struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	buildDir string
}

// outcome is what a workload hands back for reporting.
type outcome struct {
	tally tally
	// endToEnd and perLayer hold the metrics of BENCHMARK.json; extra holds
	// figures only the report line carries.
	endToEnd map[string]float64
	perLayer map[string]float64
	extra    map[string]any
	polys    []string
}

// workload is one named set of inputs the benchmark runs. Why each was
// chosen is recorded in BENCHMARK.json and perfbench/README.md.
type workload struct {
	Name string
	Loop string
	run  func(ctx context.Context, cfg config) (*outcome, error)
}

var workloads = []workload{
	{
		Name: "mont283",
		Loop: "closed loop, one caller, one design at a time",
		run: func(ctx context.Context, cfg config) (*outcome, error) {
			return runExtraction(ctx, cfg, montgomery, 283)
		},
	},
	{
		Name: "mast571",
		Loop: "closed loop, one caller, one design at a time",
		run: func(ctx context.Context, cfg config) (*outcome, error) {
			return runExtraction(ctx, cfg, mastrovito, 571)
		},
	},
	{
		Name: "gfred-flood",
		Loop: "closed loop, two clients: well (one job in flight) and greedy (one upload in flight)",
		run:  runFloodWorkload,
	},
}

// hardMargin is how long past --seconds a run may take to finish what it
// has in flight before its context expires.
const hardMargin = 100 * time.Second

// recordFailure counts a failed operation; a wrong P(x) marks the run
// incorrect.
func recordFailure(t *tally, err error) {
	if errors.Is(err, errWrongPoly) {
		t.wrongResult(err.Error())
		return
	}
	t.fail(err.Error())
}

// runExtraction extracts freshly drawn designs of one kind, one at a time,
// until the extractions have taken cfg.seconds. Each design is built just
// before it runs (set-up, not timed) and extracted in a process of its own,
// as cold as a gfre run on it.
//
// Traced, the run first lints one design the way gfred's submit path does
// and sends another through an idle in-process gfred, so the source-lint
// and server layers read this workload's inputs too. Then each design is
// replayed layer by layer and extracted untraced, which both checks the
// replay and gives the untraced reference. The probe's time counts against
// cfg.seconds.
func runExtraction(ctx context.Context, cfg config, arch string, m int) (*outcome, error) {
	out := &outcome{}
	st := newDrawer(cfg.seed).stream(fmt.Sprintf("%s%d", arch, m))
	var (
		lay    layers
		walls  []float64
		peaks  []float64
		builds []float64
		spent  time.Duration
	)
	next := func() (*design, error) {
		d, err := st.next(arch, m)
		if err != nil {
			return nil, err
		}
		builds = append(builds, d.Build.Seconds())
		out.polys = append(out.polys, d.P.String())
		return d, nil
	}
	if cfg.trace {
		start := time.Now()
		if err := probeServer(ctx, cfg, next, &lay, &out.tally); err != nil {
			return nil, err
		}
		spent += time.Since(start)
	}
	// A traced run replays at least one design, however long the probe took.
	for first := true; (first || spent < cfg.seconds) && ctx.Err() == nil; first = false {
		d, err := next()
		if err != nil {
			return nil, err
		}
		if cfg.trace {
			spent += replayChecked(ctx, d, &lay, &out.tally)
			continue
		}
		took, peak, err := coldExtract(ctx, d)
		spent += took
		if err != nil {
			recordFailure(&out.tally, err)
			continue
		}
		out.tally.ok()
		walls = append(walls, took.Seconds())
		peaks = append(peaks, peak)
	}
	if cfg.trace {
		lay.builds = builds
		out.perLayer = lay.metrics()
		return out, nil
	}
	out.endToEnd = map[string]float64{
		"extract_s":    mean(walls),
		"job_p50_s":    median(walls),
		"jobs_per_min": ratio(60, mean(walls)),
		"peak_rss_mb":  median(peaks),
		"setup_s":      median(builds),
	}
	out.extra = map[string]any{"job_tail_s": tailOf(walls), "design_s": walls, "peak_rss_mb": peaks}
	return out, nil
}

// replayChecked replays d layer by layer, then extracts it untraced and
// checks both: the untraced result against the planted P(x), the replay
// against the untraced run. It returns the time the two took.
func replayChecked(ctx context.Context, d *design, lay *layers, t *tally) time.Duration {
	settle()
	r, err := replayDesign(ctx, d)
	var spent time.Duration
	if r != nil {
		spent += r.Wall
	}
	if err != nil {
		recordFailure(t, err)
		return spent
	}
	r.release()
	settle()
	ext, took, err := extractDesign(ctx, d)
	spent += took
	if err := checkExtraction(d, ext, err); err != nil {
		recordFailure(t, err)
		return spent
	}
	if err := faithful(r, ext); err != nil {
		t.wrongResult(fmt.Sprintf("%s: replay is not faithful: %v", d.Name, err))
		return spent
	}
	t.ok()
	lay.addReplay(r, took)
	return spent
}

// probeServer lints one fresh design the way gfred's submit path does and
// runs another through an idle in-process gfred, for the traced run's
// source-lint and server layer readings.
func probeServer(ctx context.Context, cfg config, next func() (*design, error), lay *layers, t *tally) error {
	lintee, err := next()
	if err != nil {
		return err
	}
	job, err := next()
	if err != nil {
		return err
	}
	took, err := lintSource(lintee)
	if err != nil {
		recordFailure(t, err)
	} else {
		t.ok()
		lay.source = append(lay.source, took.Seconds())
	}
	g, err := startGfred(cfg.buildDir, server.TenantPolicy{})
	if err != nil {
		return fmt.Errorf("start gfred: %w", err)
	}
	jt, jerr := g.runJob(ctx, wellTenant, job)
	if err := g.stop(); err != nil {
		return fmt.Errorf("stop gfred: %w", err)
	}
	if jerr != nil {
		recordFailure(t, jerr)
		return nil
	}
	t.ok()
	lay.jobs = append(lay.jobs, jt)
	return nil
}

// runFloodWorkload builds the flood's designs, runs the flood and reads the
// well tenant's jobs. Traced, a separate draw of well-tenant designs is
// first replayed layer by layer (before the service has seen any of them)
// and one greedy-size design is linted as the submit path would.
func runFloodWorkload(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{}
	dr := newDrawer(cfg.seed)
	var lay layers
	floodCfg := cfg
	if cfg.trace {
		start := time.Now()
		rs := dr.stream("flood-replay")
		next := func(arch string, m int) (*design, error) {
			d, err := rs.next(arch, m)
			if err != nil {
				return nil, err
			}
			lay.builds = append(lay.builds, d.Build.Seconds())
			out.polys = append(out.polys, d.P.String())
			return d, nil
		}
		for i := 0; i < floodReplays; i++ {
			d, err := next(wellArch, wellM)
			if err != nil {
				return nil, err
			}
			replayChecked(ctx, d, &lay, &out.tally)
		}
		d, err := next(greedyArch, greedyM)
		if err != nil {
			return nil, err
		}
		took, err := lintSource(d)
		if err != nil {
			recordFailure(&out.tally, err)
		} else {
			out.tally.ok()
			lay.source = append(lay.source, took.Seconds())
		}
		// The replay's time counts against the run, down to half of it.
		floodCfg.seconds = max(cfg.seconds-time.Since(start), cfg.seconds/2)
	}

	nWell, nGreedy := floodDesigns(cfg.seconds)
	ws, gs := dr.stream("well"), dr.stream("greedy")
	var well, greedy []*design
	var builds []float64
	for i := 0; i < nWell; i++ {
		d, err := ws.next(wellArch, wellM)
		if err != nil {
			return nil, err
		}
		well = append(well, d)
		builds = append(builds, d.Build.Seconds())
	}
	for i := 0; i < nGreedy; i++ {
		d, err := gs.next(greedyArch, greedyM)
		if err != nil {
			return nil, err
		}
		greedy = append(greedy, d)
		builds = append(builds, d.Build.Seconds())
	}
	f, err := runFlood(ctx, floodCfg, well, greedy, &out.tally)
	if err != nil {
		return nil, err
	}
	for _, d := range append(well[:f.WellSent:f.WellSent], greedy[:f.GreedySent]...) {
		out.polys = append(out.polys, d.P.String())
	}
	var latency, runtimes []float64
	for _, j := range f.Jobs {
		latency = append(latency, j.Latency.Seconds())
		runtimes = append(runtimes, j.State.Result.RuntimeSeconds)
	}
	out.extra = map[string]any{
		"job_tail_s":     tailOf(latency),
		"reject_p50_s":   median(f.Rejects),
		"rejects":        len(f.Rejects),
		"well_jobs":      len(f.Jobs),
		"server_start_s": f.Start.Seconds(),
		"greedy_job_s":   f.Admitted.Seconds(),
		"job_s":          latency,
		"reject_s":       f.Rejects,
	}
	if cfg.trace {
		lay.builds = append(lay.builds, builds...)
		lay.jobs = f.Jobs
		out.perLayer = lay.metrics()
		return out, nil
	}
	out.endToEnd = map[string]float64{
		"extract_s":    mean(runtimes),
		"peak_rss_mb":  peakRSSMiB(),
		"job_p50_s":    median(latency),
		"jobs_per_min": ratio(60*float64(len(f.Jobs)), f.Window.Seconds()),
		"setup_s":      median(builds) + f.Start.Seconds(),
	}
	return out, nil
}

// floodReplays is how many well-tenant designs a traced flood run replays
// layer by layer before the flood starts.
const floodReplays = 3
