// Extract is the lease-scheduled form of extract.IrreduciblePolynomial:
// the one extraction pipeline (extract.Scheduled) with its cone executor
// swapped for a Pool of cone leases, run by local workers and any remote
// peers reached through a Hub.
package shard

import (
	"context"
	"time"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// ExtractOptions tunes the scheduling side of a sharded extraction; the
// extraction semantics (ports, tolerance, verification, checkpointing)
// stay in extract.Options.
type ExtractOptions struct {
	// Workers is the local lease-executing goroutine count. 0 selects 1;
	// negative runs no local workers (pure coordinator — remote peers via
	// Hub do all the work).
	Workers int
	// MaxCones caps the cones per lease (0 = DefaultMaxCones).
	MaxCones int
	// LeaseTTL / MaxAttempts / BackoffBase / BackoffCap / StealAge / Seed
	// forward to Config.
	LeaseTTL                time.Duration
	MaxAttempts             int
	BackoffBase, BackoffCap time.Duration
	StealAge                time.Duration
	Seed                    int64
	// Store is the cross-job result cache; nil allocates a private one.
	Store *Store
	// Hub, when non-nil, exposes the pool to remote peers under HubKey for
	// the duration of the run.
	Hub *Hub
	// HubKey names the pool in the hub ("" selects the content hash).
	HubKey string
}

// Extract reverse engineers P(x) with lease-based sharded rewriting. The
// returned Stats carry the robustness counters (expiries, steals, fenced
// zombies, reuse) of the run; the Extraction/Diagnosis pair matches what
// the monolithic extract paths produce for the same options.
func Extract(n *netlist.Netlist, eopts extract.Options, sopts ExtractOptions) (*extract.Extraction, *extract.Diagnosis, Stats, error) {
	var stats Stats
	ext, diag, err := extract.Scheduled(n, eopts, func(n *netlist.Netlist, ro rewrite.Options) (rw *rewrite.Result, err error) {
		rw, stats, err = leaseCones(n, ro, sopts)
		return rw, err
	})
	return ext, diag, stats, err
}

// leaseCones is the lease-pool cone executor: one Pool over n's outputs,
// drained by local workers and any remote peers reached through the Hub.
// The governed budget and deadline, the checkpoint seam's Prior and
// OnBitDone hooks, and the caller's context all arrive on ro. A context
// that ends mid-run still returns the pool's result, with unfinished cones
// as cancelled bits.
func leaseCones(n *netlist.Netlist, ro rewrite.Options, sopts ExtractOptions) (*rewrite.Result, Stats, error) {
	hash, err := checkpoint.HashNetlist(n)
	if err != nil {
		return nil, Stats{}, err
	}
	m := len(n.Outputs())
	pool, err := NewPool(Config{
		Hash: hash, Bits: m,
		LeaseTTL: sopts.LeaseTTL, MaxConesPerLease: sopts.MaxCones,
		MaxAttempts: sopts.MaxAttempts,
		BackoffBase: sopts.BackoffBase, BackoffCap: sopts.BackoffCap,
		StealAge:    sopts.StealAge,
		BudgetTerms: ro.BudgetTerms, ConeDeadline: ro.ConeDeadline,
		Store: sopts.Store, Prior: ro.Prior, OnResult: ro.OnBitDone,
		Recorder: ro.Recorder, Seed: sopts.Seed,
	})
	if err != nil {
		return nil, Stats{}, err
	}
	defer pool.Close()

	if sopts.Hub != nil {
		key := sopts.HubKey
		if key == "" {
			key = hash
		}
		if err := sopts.Hub.Register(key, pool, n); err != nil {
			return nil, Stats{}, err
		}
		defer sopts.Hub.Unregister(key)
	}

	ctx := ro.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	span := ro.Recorder.StartSpan("rewrite", map[string]int64{"bits": int64(m), "sharded": 1})
	if sopts.Workers >= 0 {
		workers := sopts.Workers
		if workers == 0 {
			workers = 1
		}
		// RunWorkers returns on ErrDone; remote peers may race it to the
		// last cone, which simply makes the local loop exit early.
		RunWorkers(ctx, pool, n, WorkerConfig{
			Workers: workers, MaxCones: sopts.MaxCones,
			Rewrite: rewrite.Options{Recorder: ro.Recorder, Threads: ro.Threads},
		})
	}
	waitErr := pool.Wait(ctx)
	span.End()

	rw := pool.Result()
	rw.Runtime = time.Since(start)
	rw.Threads = sopts.Workers
	return rw, pool.Stats(), waitErr
}
