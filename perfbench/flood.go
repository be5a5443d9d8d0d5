package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/server"
)

// The gfred-flood tenants: "well" waits for each job before submitting the
// next, "greedy" uploads back to back under a rate limit that admits only
// its first upload.
const (
	wellTenant   = "well"
	greedyTenant = "greedy"
	greedyArch   = montgomery
	greedyM      = 283
)

// floodPolicy admits one greedy upload per hour with a burst of one, and
// leaves the well tenant unlimited.
func floodPolicy() server.TenantPolicy {
	return server.TenantPolicy{Tenants: map[string]server.TenantQuota{
		greedyTenant: {Rate: 1.0 / 3600, Burst: 1},
	}}
}

// The well tenant submits GF(2^163) Mastrovito designs (the size of NIST
// B-163). One kind of design keeps its latency distribution unimodal, so
// the median is steady from run to run; with a mix of sizes the median
// falls between two of them and jumps.
const (
	wellArch = mastrovito
	wellM    = 163
)

// floodDesigns sizes the pre-built inputs of one flood run: well designs
// for two jobs a second (more than twice the rate measured on two cores),
// and greedy designs for one upload every two seconds (its uploads are
// refused after three to seven). A tenant that runs out stops early, and
// a greedy tenant that stops early takes its load off the well one.
func floodDesigns(seconds time.Duration) (well, greedy int) {
	s := int(seconds / time.Second)
	return 2*s + 2, s/2 + 2
}

// flood is the outcome of one flood.
type flood struct {
	Jobs    []*jobTiming // completed well jobs
	Rejects []float64    // greedy seconds from POST to its 429
	// Window is the well tenant's time from its first POST to the terminal
	// event of its last job.
	Window time.Duration
	// Start is the time to start the queue and the HTTP server.
	Start time.Duration
	// Admitted is the time from the greedy tenant's first upload to its
	// job's end, before the timed window.
	Admitted time.Duration
	// WellSent and GreedySent count the designs each tenant submitted.
	WellSent, GreedySent int
}

// runFlood starts an in-process gfred and lets the greedy tenant's first
// upload, the one its quota admits, run to completion. Then it drives both
// tenants until seconds have passed; each finishes the operation it has in
// flight. Timing, and the peak-RSS reading, start once the greedy tenant is
// over quota, so every run measures the same steady state: the single
// worker serves the well tenant while each greedy upload is linted and
// refused.
func runFlood(ctx context.Context, cfg config, well, greedy []*design, t *tally) (*flood, error) {
	start := time.Now()
	g, err := startGfred(cfg.buildDir, floodPolicy())
	if err != nil {
		return nil, fmt.Errorf("start gfred: %w", err)
	}
	f := &flood{Start: time.Since(start)}

	var (
		wg                    sync.WaitGroup
		wellTally, greedTally tally
	)
	start = time.Now()
	f.GreedySent++
	if _, err := g.runJob(ctx, greedyTenant, greedy[0]); err != nil {
		recordFailure(&greedTally, fmt.Errorf("greedy upload 0: %w", err))
	} else {
		greedTally.ok()
	}
	f.Admitted = time.Since(start)
	settle()
	begin := time.Now()
	end := begin.Add(cfg.seconds)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, d := range well {
			if !time.Now().Before(end) || ctx.Err() != nil {
				break
			}
			f.WellSent++
			jt, err := g.runJob(ctx, wellTenant, d)
			if err != nil {
				recordFailure(&wellTally, err)
				continue
			}
			wellTally.ok()
			f.Jobs = append(f.Jobs, jt)
		}
		f.Window = time.Since(begin)
	}()
	go func() {
		defer wg.Done()
		for i := 1; i < len(greedy); i++ {
			if !time.Now().Before(end) || ctx.Err() != nil {
				break
			}
			f.GreedySent++
			t0 := time.Now()
			code, _, err := g.submit(ctx, greedyTenant, greedy[i].EQN)
			took := time.Since(t0)
			if err == nil {
				err = judgeRefusal(i, code)
			}
			if err != nil {
				greedTally.fail(err.Error())
				continue
			}
			greedTally.ok()
			f.Rejects = append(f.Rejects, took.Seconds())
		}
	}()
	wg.Wait()
	t.merge(&wellTally)
	t.merge(&greedTally)
	if err := g.stop(); err != nil {
		return f, fmt.Errorf("stop gfred: %w", err)
	}
	return f, nil
}

// judgeRefusal checks the answer to the greedy tenant's i-th upload (from
// 0, i > 0): over quota, it must be refused with 429.
func judgeRefusal(i, code int) error {
	if code != http.StatusTooManyRequests {
		return fmt.Errorf("greedy upload %d: HTTP %d, want %d", i, code, http.StatusTooManyRequests)
	}
	return nil
}

// lintSource times the admission-time lint gfred runs on an upload.
func lintSource(d *design) (time.Duration, error) {
	start := time.Now()
	rep := netlint.AnalyzeSource(d.EQN, "submit", "eqn", netlint.Options{RequireMultiplier: true})
	took := time.Since(start)
	if err := rep.Err(); err != nil {
		return took, fmt.Errorf("%s: source lint: %w", d.Name, err)
	}
	return took, nil
}
