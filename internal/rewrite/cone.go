// Single-cone entry point for sharded extraction: the same governed
// rewriting (budget, deadline, panic containment, retry ladder) that
// Outputs applies per worker, exposed for schedulers that hand out cones
// one lease at a time instead of owning the whole worker pool.
package rewrite

import (
	"context"
	"errors"
	"fmt"

	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
)

// RewriteCone rewrites the single output bit `bit` of n under the full
// resource-governance policy of opts (Ctx, ConeDeadline, BudgetTerms). The
// returned BitResult always carries the bit index, output name and a
// terminal Status — StatusOK with a valid Expr on success, or the failure
// class with the cost counters accumulated up to the abort.
//
// Unlike Outputs, no worker pool, straggler ordering or sibling
// cancellation is involved: this is exactly one cone, for callers (the
// shard scheduler, remote gfred peers) that do their own scheduling.
func RewriteCone(n *netlist.Netlist, bit int, opts Options) (BitResult, error) {
	outs := n.Outputs()
	if bit < 0 || bit >= len(outs) {
		return BitResult{}, fmt.Errorf("rewrite: output bit %d out of range (netlist has %d outputs)", bit, len(outs))
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	br, err, _ := runCone(n, bit, outs[bit], n.OutputNames()[bit], newHooks(opts.Recorder), nil, opts, ctx)
	return br, err
}

// runCone is the per-cone path Outputs and RewriteCone share: one governed
// rewrite of output bit (driven by gate root) under a child span of parent
// (none when parent is nil), stamped with the bit's identity and terminal
// Status, then reported as a bit finish or a cone abort. retried reports a
// budget retry.
func runCone(n *netlist.Netlist, bit, root int, name string, h *hooks, parent *obs.Span, opts Options, ctx context.Context) (br BitResult, err error, retried bool) {
	rec := opts.Recorder
	rec.BitStart(bit, name)
	// Child is nil-safe and the attrs ride on EndWith, so the nil-recorder
	// path stays allocation-free.
	coneSpan := parent.Child(name, nil)
	h.busyAdd(1)
	br, err, retried = rewriteGoverned(n, root, h, opts, ctx)
	h.busyAdd(-1)
	br.Bit, br.Name = bit, name
	if err == nil {
		br.Status = StatusOK
	} else {
		if be := (*BudgetError)(nil); errors.As(err, &be) {
			be.Bit, be.Name = bit, name
		}
		if br.Status == "" || br.Status == StatusOK {
			br.Status = StatusError
		}
		br.Err = err.Error()
	}
	if coneSpan != nil {
		retriedV := int64(0)
		if retried {
			retriedV = 1
		}
		coneSpan.SetStatus(string(br.Status))
		coneSpan.EndWith(map[string]int64{
			"bit": int64(bit), "cone_gates": int64(br.ConeGates),
			"subst": int64(br.Substitutions), "peak_terms": int64(br.PeakTerms),
			"cancelled": int64(br.Cancelled), "retries": retriedV,
		})
	}
	if err == nil {
		rec.BitFinish(obs.BitStats{
			Bit: br.Bit, Name: br.Name, ConeGates: br.ConeGates,
			Substitutions: br.Substitutions, PeakTerms: br.PeakTerms,
			FinalTerms: br.FinalTerms, Cancelled: br.Cancelled,
			Duration: br.Runtime,
		})
	} else {
		h.countAbort(br)
	}
	return br, err, retried
}
