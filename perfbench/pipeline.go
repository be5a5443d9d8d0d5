package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/netlint/sem"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// extractDesign runs what the gfre command runs by default on one design:
// parse the EQN text, then extract with preflight on and one rewriting
// thread per CPU. The duration covers EQN bytes to a verified P(x).
func extractDesign(ctx context.Context, d *design) (*extract.Extraction, time.Duration, error) {
	start := time.Now()
	n, err := netlist.ReadEQN(bytes.NewReader(d.EQN), d.Name)
	if err != nil {
		return nil, time.Since(start), fmt.Errorf("parse: %w", err)
	}
	ext, err := extract.IrreduciblePolynomial(n, extract.Options{
		Threads: runtime.NumCPU(), Preflight: true, Ctx: ctx,
	})
	return ext, time.Since(start), err
}

// errWrongPoly marks an extraction that finished but recovered something
// other than the planted polynomial, or did not verify it.
var errWrongPoly = errors.New("wrong or unverified P(x)")

// checkExtraction is the correctness gate of one extraction: no error, the
// golden-model check ran and passed, and the recovered P(x) is the planted
// one. The error wraps errWrongPoly when a result came back but is wrong.
func checkExtraction(d *design, ext *extract.Extraction, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", d.Name, err)
	case !ext.Verified:
		return fmt.Errorf("%s: %w: %v not verified", d.Name, errWrongPoly, ext.P)
	case !ext.P.Equal(d.P):
		return fmt.Errorf("%s: %w: recovered %v, planted %v", d.Name, errWrongPoly, ext.P, d.P)
	}
	return nil
}

// replay is one design taken through the extraction pipeline by the
// benchmark itself, one layer call at a time, with each call timed.
type replay struct {
	Parse, Hash, Sem, Lint, Rewrite, Algorithm2, Golden, Verify time.Duration
	// Wall runs from before the parse to after the last comparison.
	Wall time.Duration

	Report *netlint.Report
	Result *rewrite.Result
	P      gf2poly.Poly
	// AllocBytes and GCCycles are the process-wide heap allocation and GC
	// cycle deltas across rewrite.Outputs.
	AllocBytes, GCCycles uint64
}

// release drops the rewritten expressions, the bulk of a replay's memory,
// keeping the per-bit counters, so the untraced run that follows does not
// carry them in its live heap.
func (r *replay) release() {
	for i := range r.Result.Bits {
		r.Result.Bits[i].Expr = anf.Poly{}
	}
}

// spans returns the time inside layer calls.
func (r *replay) spans() time.Duration {
	return r.Parse + r.Hash + r.Sem + r.Lint + r.Rewrite + r.Algorithm2 + r.Golden + r.Verify
}

// timed runs f and adds its wall time to *dst.
func timed(dst *time.Duration, f func()) {
	start := time.Now()
	f()
	*dst += time.Since(start)
}

// replayDesign takes the steps extract.IrreduciblePolynomial takes with
// preflight on — content hash, semantic sweep, lint, governor, rewrite with
// the governor's budget and deadline, Algorithm 2, golden model, verify —
// calling each layer's public function directly so each can be timed.
//
// The semantic sweep is called through the same content-hash cache netlint
// uses, so the lint call that follows finds it there: each piece of work
// runs once, as in the untraced pipeline.
func replayDesign(ctx context.Context, d *design) (*replay, error) {
	r := &replay{}
	start := time.Now()
	var (
		n   *netlist.Netlist
		err error
	)
	timed(&r.Parse, func() { n, err = netlist.ReadEQN(bytes.NewReader(d.EQN), d.Name) })
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", d.Name, err)
	}
	var hash string
	timed(&r.Hash, func() { hash, err = checkpoint.HashNetlist(n) })
	if err != nil {
		return nil, fmt.Errorf("%s: hash: %w", d.Name, err)
	}
	timed(&r.Sem, func() { sem.AnalyzeCached(n, hash, sem.Options{}) })
	timed(&r.Lint, func() {
		r.Report = netlint.Analyze(n, netlint.Options{RequireMultiplier: true, ContentHash: hash})
	})
	if err := r.Report.Err(); err != nil {
		return nil, fmt.Errorf("%s: preflight: %w", d.Name, err)
	}
	budget, deadline := r.Report.Governor(0, 0)
	a, b, err := operandPorts(n, d.M)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}

	before := readRuntimeCounters()
	timed(&r.Rewrite, func() {
		r.Result, err = rewrite.Outputs(n, rewrite.Options{
			Threads: runtime.NumCPU(), Ctx: ctx, BudgetTerms: budget, ConeDeadline: deadline,
		})
	})
	after := readRuntimeCounters()
	r.AllocBytes, r.GCCycles = after[0]-before[0], after[1]-before[1]
	if err != nil {
		return nil, fmt.Errorf("%s: rewrite: %w", d.Name, err)
	}

	timed(&r.Algorithm2, func() { r.P, err = extract.FromExpressions(r.Result, a, b) })
	if err != nil {
		return nil, fmt.Errorf("%s: algorithm 2: %w", d.Name, err)
	}
	specs := make([]anf.Poly, d.M)
	timed(&r.Golden, func() {
		for c := range specs {
			specs[c] = extract.SpecificationANF(r.P, a, b, c)
		}
	})
	var bad []int
	timed(&r.Verify, func() {
		for c, br := range r.Result.Bits {
			if !br.Expr.Equal(specs[c]) {
				bad = append(bad, c)
			}
		}
	})
	r.Wall = time.Since(start)
	if len(bad) > 0 {
		return r, fmt.Errorf("%s: %w: bits %v deviate from the golden model of %v", d.Name, errWrongPoly, bad, r.P)
	}
	if !r.P.Equal(d.P) {
		return r, fmt.Errorf("%s: %w: replay recovered %v, planted %v", d.Name, errWrongPoly, r.P, d.P)
	}
	return r, nil
}

// faithful checks that a replay took the same steps as the untraced
// pipeline on the same design: same P(x), same per-bit substitution counts,
// same suggested term budget.
func faithful(r *replay, ext *extract.Extraction) error {
	if !r.P.Equal(ext.P) {
		return fmt.Errorf("replay P(x) %v, Extract %v", r.P, ext.P)
	}
	if ext.Lint == nil || ext.Lint.SuggestedBudgetTerms != r.Report.SuggestedBudgetTerms {
		return fmt.Errorf("replay suggested budget %d differs from Extract's", r.Report.SuggestedBudgetTerms)
	}
	if len(r.Result.Bits) != len(ext.Rewrite.Bits) {
		return fmt.Errorf("replay rewrote %d bits, Extract %d", len(r.Result.Bits), len(ext.Rewrite.Bits))
	}
	for i, b := range r.Result.Bits {
		if got := ext.Rewrite.Bits[i].Substitutions; b.Substitutions != got {
			return fmt.Errorf("bit %d: replay made %d substitutions, Extract %d", i, b.Substitutions, got)
		}
	}
	return nil
}

// operandPorts maps the generator's a<i>/b<i> input names to gate IDs, as
// extract's port identification does for conventionally named operands.
func operandPorts(n *netlist.Netlist, m int) (a, b []int, err error) {
	byName := make(map[string]int, 2*m)
	for _, id := range n.Inputs() {
		byName[n.NameOf(id)] = id
	}
	a, b = make([]int, m), make([]int, m)
	for i := 0; i < m; i++ {
		var okA, okB bool
		a[i], okA = byName[fmt.Sprintf("a%d", i)]
		b[i], okB = byName[fmt.Sprintf("b%d", i)]
		if !okA || !okB {
			return nil, nil, fmt.Errorf("operand bit %d has no a%d/b%d input", i, i, i)
		}
	}
	return a, b, nil
}

// readRuntimeCounters returns cumulative heap allocation bytes and GC cycles.
func readRuntimeCounters() [2]uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var out [2]uint64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}
