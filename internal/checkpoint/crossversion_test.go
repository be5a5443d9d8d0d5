package checkpoint

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// TestCrossVersionResume pins the snapshot format across ANF-core versions:
// testdata/crossversion/snapshot.gfre was written by the string-keyed ANF
// core that predates the packed intern-table implementation (m=16
// Mastrovito over polytab.Default(16), 14 completed cones, bits 3 and 11
// never attempted). The current core must Load it, verify the netlist
// binding, unpack its expressions, adopt all 14 cones through
// rewrite.Options.Prior, and finish the remaining two bits to expressions
// identical to a from-scratch run. The fixture bytes are immutable — if
// this test fails after a checkpoint or ANF change, the code broke resume
// compatibility; fix the code, do not regenerate the fixture.
func TestCrossVersionResume(t *testing.T) {
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(16, p)
	if err != nil {
		t.Fatal(err)
	}

	// The fixture binds to the generator by content hash. If this fails the
	// generator's output changed, which invalidates every snapshot in the
	// field — a compatibility break in its own right.
	raw, err := os.ReadFile(filepath.Join("testdata", "crossversion", SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := Load(dir)
	if err != nil {
		t.Fatalf("old-core snapshot no longer loads: %v", err)
	}
	hash, err := HashNetlist(n)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NetlistHash != hash {
		t.Fatalf("netlist hash drifted: fixture %s, generator now %s", snap.NetlistHash, hash)
	}
	if got := snap.DoneCones(); got != 14 {
		t.Fatalf("fixture has %d done cones, want 14", got)
	}
	for _, bit := range []int{3, 11} {
		if snap.Bits[bit].Status != "" {
			t.Fatalf("fixture bit %d should be unattempted, has status %q", bit, snap.Bits[bit].Status)
		}
	}

	// Restore through the manager exactly as a resumed extraction would.
	mgr := NewManager(dir)
	prior, err := mgr.Restore(n)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(prior) != 14 {
		t.Fatalf("Restore returned %d priors, want 14", len(prior))
	}

	resumed, err := rewrite.Outputs(n, rewrite.Options{Threads: 2, Prior: prior})
	if err != nil {
		t.Fatalf("resumed rewrite: %v", err)
	}
	if resumed.Reused != 14 {
		t.Fatalf("resumed run reused %d cones, want 14", resumed.Reused)
	}

	fresh, err := rewrite.Outputs(n, rewrite.Options{Threads: 2})
	if err != nil {
		t.Fatalf("fresh rewrite: %v", err)
	}
	for i := range fresh.Bits {
		if resumed.Bits[i].Status != rewrite.StatusOK {
			t.Fatalf("bit %d: status %q", i, resumed.Bits[i].Status)
		}
		if got, want := resumed.Bits[i].Expr.String(), fresh.Bits[i].Expr.String(); got != want {
			t.Fatalf("bit %d: resumed expression diverges from fresh run\nresumed: %s\nfresh:   %s",
				i, got, want)
		}
	}
}
