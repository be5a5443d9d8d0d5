package extract

import (
	"context"
	"errors"
	"testing"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/rewrite"
)

func TestExtractCheckpointLifecycle(t *testing.T) {
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(16, p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr := checkpoint.NewManager(dir)

	ext, err := IrreduciblePolynomial(n, Options{Checkpoint: mgr})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.P.Equal(p) {
		t.Fatalf("recovered %v, want %v", ext.P, p)
	}
	snap, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Complete || snap.P != p.String() {
		t.Fatalf("snapshot after success: complete=%v p=%q", snap.Complete, snap.P)
	}
	if snap.DoneCones() != 16 {
		t.Fatalf("snapshot has %d done cones, want 16", snap.DoneCones())
	}

	// A restarted process resuming the complete snapshot reuses every cone.
	ext2, err := IrreduciblePolynomial(n, Options{
		Checkpoint: checkpoint.NewManager(dir), Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ext2.Rewrite.Reused != 16 {
		t.Fatalf("resumed run reused %d cones, want 16", ext2.Rewrite.Reused)
	}
	if !ext2.P.Equal(p) {
		t.Fatalf("resumed run recovered %v, want %v", ext2.P, p)
	}
}

func TestExtractResumeFromPartialSnapshot(t *testing.T) {
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(16, p)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a killed run: rewrite cold, then checkpoint only the first
	// seven cones — exactly what a mid-run snapshot on disk looks like.
	cold, err := rewrite.Outputs(n, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr := checkpoint.NewManager(dir)
	if err := mgr.Begin(n); err != nil {
		t.Fatal(err)
	}
	for _, br := range cold.Bits[:7] {
		mgr.Record(br)
	}
	if err := mgr.Sync(); err != nil {
		t.Fatal(err)
	}

	ext, err := IrreduciblePolynomial(n, Options{
		Checkpoint: checkpoint.NewManager(dir), Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Rewrite.Reused != 7 {
		t.Fatalf("reused %d cones, want 7", ext.Rewrite.Reused)
	}
	if !ext.P.Equal(p) {
		t.Fatalf("resumed extraction recovered %v, want %v", ext.P, p)
	}
	if !ext.Verified {
		t.Fatal("resumed extraction skipped verification")
	}
}

func TestExtractResumeRejectsForeignSnapshot(t *testing.T) {
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	mast, err := gen.Mastrovito(8, p)
	if err != nil {
		t.Fatal(err)
	}
	mont, err := gen.Montgomery(8, p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr := checkpoint.NewManager(dir)
	if err := mgr.Begin(mast); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	_, err = IrreduciblePolynomial(mont, Options{
		Checkpoint: checkpoint.NewManager(dir), Resume: true,
	})
	if !errors.Is(err, checkpoint.ErrCheckpoint) {
		t.Fatalf("foreign snapshot: got %v, want ErrCheckpoint", err)
	}
}

func TestExtractCancellationLeavesResumableSnapshot(t *testing.T) {
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(16, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run: every cone aborts, none complete
	dir := t.TempDir()
	_, err = IrreduciblePolynomial(n, Options{
		Checkpoint: checkpoint.NewManager(dir), Ctx: ctx,
	})
	if err == nil {
		t.Fatal("cancelled extraction succeeded")
	}
	// The snapshot must exist and be loadable — the resume path of a run
	// interrupted before any cone finished is simply a cold start.
	snap, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Complete {
		t.Fatal("interrupted snapshot marked complete")
	}
	ext, err := IrreduciblePolynomial(n, Options{
		Checkpoint: checkpoint.NewManager(dir), Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.P.Equal(p) {
		t.Fatalf("post-cancel resume recovered %v, want %v", ext.P, p)
	}
}

// TestEveryEntryPointCheckpointsUnderOneRootSpan: named-port, inferred,
// diagnose and verify-against extraction all run the same pipeline, so each
// writes a finalized snapshot, resumes from it with every cone reused, and
// records its phases under exactly one "extraction" root span.
func TestEveryEntryPointCheckpointsUnderOneRootSpan(t *testing.T) {
	const m = 16
	p, err := polytab.Default(m)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(m, p)
	if err != nil {
		t.Fatal(err)
	}
	scrambled := scramble(t, n, 1)
	for _, tc := range []struct {
		name string
		run  func(Options) (*Extraction, error)
	}{
		{"named", func(o Options) (*Extraction, error) { return IrreduciblePolynomial(n, o) }},
		{"inferred", func(o Options) (*Extraction, error) {
			ext, _, err := IrreduciblePolynomialInferred(scrambled, o)
			return ext, err
		}},
		{"diagnose", func(o Options) (*Extraction, error) {
			o.Tolerate = 1
			ext, _, err := Diagnose(n, o)
			return ext, err
		}},
		{"verify-against", func(o Options) (*Extraction, error) { return VerifyAgainst(n, p, o) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, resume := range []bool{false, true} {
				rec := obs.NewRecorder()
				ext, err := tc.run(Options{
					Recorder: rec, Checkpoint: checkpoint.NewManager(dir), Resume: resume,
				})
				if err != nil {
					t.Fatalf("resume=%v: %v", resume, err)
				}
				if !ext.P.Equal(p) || !ext.Verified {
					t.Fatalf("resume=%v: recovered %v (verified %v), want %v", resume, ext.P, ext.Verified, p)
				}
				if roots := rec.TraceTree(); len(roots) != 1 || roots[0].Name != "extraction" {
					var names []string
					for _, r := range roots {
						names = append(names, r.Name)
					}
					t.Fatalf("resume=%v: root spans %v, want one extraction", resume, names)
				}
				if reused := ext.Rewrite.Reused; resume && reused != m || !resume && reused != 0 {
					t.Fatalf("resume=%v: reused %d cones", resume, reused)
				}
				snap, err := checkpoint.Load(dir)
				if err != nil {
					t.Fatalf("resume=%v: %v", resume, err)
				}
				if !snap.Complete || snap.P != p.String() || snap.DoneCones() != m {
					t.Fatalf("resume=%v: snapshot complete=%v p=%q done=%d", resume, snap.Complete, snap.P, snap.DoneCones())
				}
			}
		})
	}
}
