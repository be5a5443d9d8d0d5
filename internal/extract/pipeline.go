package extract

import (
	"context"
	"errors"
	"fmt"

	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// The extraction pipeline. Every entry point of this package is one run of
// the same stages, in this order:
//
//  1. defaults: operand prefixes "a"/"b" and the m ≥ 2 check;
//  2. the "extraction" root span, marked "error" when the run fails;
//  3. preflight: netlint, the governor's budget and deadline, anomaly arming;
//  4. port identification (skipped when the ports are inferred);
//  5. Algorithm 1 through the checkpoint seam, on one of two cone
//     executors: rewrite.Outputs in-process, or a caller's scheduler handed
//     in through Scheduled (the shard lease pool);
//  6. one terminal stage: strict Algorithm 2, a known P(x), Algorithm 2 on
//     inferred ports, or consensus with localization;
//  7. checkpoint finalization, then the golden-model check.

// ConeExecutor runs Algorithm 1 over every output cone of n. It has
// rewrite.Outputs' signature: ro carries the governed budget and deadline,
// the caller's context, recorder and thread count, and the checkpoint
// seam's Prior and OnBitDone hooks, all of which an executor must honor.
type ConeExecutor func(n *netlist.Netlist, ro rewrite.Options) (*rewrite.Result, error)

// terminal selects the back half of a run.
type terminal int

const (
	termStrict    terminal = iota // Algorithm 2, then the golden model
	termKnown                     // the golden model of a given P(x)
	termInferred                  // port inference, then termStrict
	termConsensus                 // per-bit vote, arbitration, localization
)

// terminal is the back half the options ask for.
func (o Options) terminal() terminal {
	if o.Tolerate > 0 || o.Diagnose {
		return termConsensus
	}
	return termStrict
}

// run is one extraction: the options, where the cones run, and the
// terminal stage.
type run struct {
	opts  Options
	cones ConeExecutor
	term  terminal
	known gf2poly.Poly // termKnown only
	// scheduled marks a caller's executor: when its context ends with a
	// result in hand, the run still assembles (see Scheduled).
	scheduled bool
}

// outcome is everything a run can hand back; each entry point returns
// its share.
type outcome struct {
	ext   *Extraction
	diag  *Diagnosis
	ports *InferredPorts
}

// Scheduled runs the extraction pipeline with Algorithm 1 on a caller's
// cone executor instead of rewrite.Outputs — how the lease-based sharded
// extractor (package shard) plugs in. Everything else is the in-process
// pipeline: preflight and its governor fill the budget and deadline the
// executor receives, the checkpoint seam wraps it, and the terminal stage
// follows the options (consensus under Tolerate or Diagnose, strict
// otherwise).
//
// Two things differ, both because a scheduler settles cones independently:
// any failed cone routes to consensus even at Tolerate 0, and when the
// executor returns a result together with a context error, unfinished
// cones vote as failed bits and the context error is returned once
// assembly succeeds.
func Scheduled(n *netlist.Netlist, opts Options, cones ConeExecutor) (*Extraction, *Diagnosis, error) {
	out, err := (&run{opts: opts, cones: cones, term: opts.terminal(), scheduled: true}).do(n)
	return out.ext, out.diag, err
}

// do runs the stages. The Extraction comes back with whatever was learned
// once preflight has a report, and in full once rewriting succeeded.
func (r *run) do(n *netlist.Netlist) (out outcome, err error) {
	opts := &r.opts
	if opts.PrefixA == "" {
		opts.PrefixA = "a"
	}
	if opts.PrefixB == "" {
		opts.PrefixB = "b"
	}
	if r.term == termConsensus {
		out.diag = &Diagnosis{Tolerate: opts.Tolerate}
	}
	m := len(n.Outputs())
	if m < 2 {
		return out, fmt.Errorf("%w: %d outputs", ErrNotMultiplier, m)
	}

	// Every phase below nests under the root span, so a trace tree
	// reconstructs the whole pipeline from one job.
	attrs := map[string]int64{"m": int64(m)}
	if r.term == termConsensus {
		attrs["tolerate"] = int64(opts.Tolerate)
	}
	if r.scheduled {
		attrs["sharded"] = 1
	}
	root := opts.Recorder.StartSpan("extraction", attrs)
	defer func() {
		if err != nil {
			root.SetStatus("error")
		}
		root.End()
	}()

	ext := &Extraction{M: m}
	if ext.Lint, err = preflight(n, opts); err != nil {
		out.ext = ext
		return out, err
	}
	if r.term != termInferred {
		if ext.AInputs, ext.BInputs, err = identifyPorts(n, m, opts.PrefixA, opts.PrefixB); err != nil {
			return out, err
		}
	}

	rw, err := r.rewrite(n)
	var ended error
	if err != nil && r.scheduled && rw != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		ended, err = err, nil
	}
	if err != nil {
		// Run-level failure: tolerance exceeded, caller context ended, or
		// a structural error. The partial per-bit picture still tells the
		// operator which cones died and why.
		if out.diag != nil && rw != nil {
			out.diag.observe(rw)
		}
		return out, err
	}
	ext.Rewrite = rw
	out.ext = ext
	if r.term == termStrict && len(rw.Failed) > 0 {
		// The in-process strict rewrite fails on its first failed cone, so
		// only a scheduler gets here: vote around the failures.
		r.term = termConsensus
		out.diag = &Diagnosis{Tolerate: opts.Tolerate}
	}

	switch r.term {
	case termStrict:
		err = algorithm2(ext, opts.Recorder)
	case termKnown:
		ext.P = r.known
	case termInferred:
		span := opts.Recorder.StartSpan("infer-ports", nil)
		out.ports, err = InferPorts(n, rw)
		span.End()
		if err == nil {
			ext.AInputs, ext.BInputs, ext.Rewrite = out.ports.A, out.ports.B, out.ports.ReorderBits(rw)
			err = algorithm2(ext, opts.Recorder)
		}
	case termConsensus:
		err = consensus(n, ext, out.diag, opts.Recorder)
	}
	if err == nil && opts.Checkpoint != nil {
		err = opts.Checkpoint.Finalize(ext.P)
	}
	if err == nil && r.term != termConsensus && (r.term == termKnown || !opts.SkipVerify) {
		err = verifyObserved(n, ext, opts.Recorder)
		ext.Verified = err == nil
	}
	if err == nil {
		err = ended
	}
	return out, err
}

// algorithm2 is the strict terminal stage: P(x) from the out-field
// product memberships.
func algorithm2(ext *Extraction, rec *obs.Recorder) (err error) {
	// The out-field product set {a_i·b_j : i+j=m} is invariant under
	// swapping the two operands (monomials are unordered), so extraction
	// is insensitive to which operand is which — only the bit order within
	// each operand matters.
	span := rec.StartSpan("extract", map[string]int64{"m": int64(ext.M)})
	ext.P, err = FromExpressions(ext.Rewrite, ext.AInputs, ext.BInputs)
	span.End()
	return err
}

// preflight runs the netlint static analyzer ahead of rewriting when
// Options.Preflight is set. Error-level findings abort the run (the returned
// error wraps netlint.ErrFindings, and the report travels back on the
// Extraction so callers can render the findings). On a clean pass the
// cone-cost predictor's suggestions fill any governor knob the caller left
// at zero, so hostile or degenerate designs hit a principled budget instead
// of running unbounded.
func preflight(n *netlist.Netlist, opts *Options) (*netlint.Report, error) {
	if !opts.Preflight {
		return nil, nil
	}
	span := opts.Recorder.StartSpan("preflight", map[string]int64{
		"gates": int64(n.NumGates()),
	})
	rep := netlint.Analyze(n, netlint.Options{RequireMultiplier: true})
	span.End()
	if err := rep.Err(); err != nil {
		return rep, err
	}
	budget, deadline := rep.Governor(opts.BudgetTerms, opts.ConeDeadline)
	if budget > 0 {
		opts.BudgetTerms = budget
	}
	if deadline > 0 {
		opts.ConeDeadline = deadline
	}
	// Arm the cone anomaly stage with the predictor's no-cancellation
	// bounds: at each cone finish the recorder compares the actual peak
	// against these and emits cone_anomaly when cancellation failed to fire
	// (see internal/obs/anomaly.go). Saturated estimates are still armed
	// with their capped value: the cap is a LOWER bound on the true
	// no-cancellation cost, so the observed ratio understates the real one
	// — a cone that reaches a meaningful fraction even of the cap is all
	// the more anomalous, and dropping these cones would blind the stage
	// to exactly the fattest candidates.
	pred := make(map[int]int64, len(rep.Cones))
	for _, c := range rep.Cones {
		pred[c.Output] = int64(c.PredictedPeakTerms)
	}
	opts.Recorder.EnableConeAnomalies(pred, obs.AnomalyConfig{})
	return rep, nil
}

// rewrite is the Snapshot/Restore seam between extraction and the cone
// executor. Without a checkpoint manager it is exactly the executor under
// the governed options. With one:
//
//   - Resume loads the directory's snapshot (validating the netlist content
//     hash) and feeds its completed cones to rewrite.Options.Prior, so only
//     pending or failed cones are re-rewritten;
//   - without Resume a fresh snapshot is begun, replacing any stale one at
//     the first cone completion;
//   - every freshly computed cone — completed or failed — lands in the
//     snapshot via the OnBitDone hook as the run progresses;
//   - whatever way the run ends (success, governed abort, cancellation),
//     Sync flushes the last throttle window, so the snapshot on disk is
//     never more than the in-flight cones behind the run.
//
// On the consensus path failed cones are data rather than fatal, so the
// executor keeps partial results up to the tolerance.
func (r *run) rewrite(n *netlist.Netlist) (*rewrite.Result, error) {
	o := r.opts
	ro := rewrite.Options{
		Threads: o.Threads, Recorder: o.Recorder,
		Ctx: o.Ctx, ConeDeadline: o.ConeDeadline, BudgetTerms: o.BudgetTerms,
	}
	if r.term == termConsensus {
		ro.KeepPartial = true
		ro.MaxFailures = o.Tolerate
	}
	ckpt := o.Checkpoint
	if ckpt != nil {
		if o.Resume {
			prior, err := ckpt.Restore(n)
			if err != nil {
				return nil, err
			}
			ro.Prior = prior
		} else if err := ckpt.Begin(n); err != nil {
			return nil, err
		}
		ro.OnBitDone = ckpt.Record
	}
	rw, err := r.cones(n, ro)
	if ckpt != nil {
		if rw != nil {
			ckpt.AddRetries(rw.Retries)
		}
		if serr := ckpt.Sync(); serr != nil && err == nil {
			err = serr
		}
	}
	return rw, err
}
