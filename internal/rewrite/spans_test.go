package rewrite_test

import (
	"testing"

	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/polytab"
)

// TestTracedSpansNestInParents: every span of a traced two-worker
// extraction, per-cone children included, is a wall-clock interval inside
// its parent's, so phase times can never add up past the run's wall.
func TestTracedSpansNestInParents(t *testing.T) {
	p, err := polytab.Default(64)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Montgomery(64, p)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	if _, err := extract.IrreduciblePolynomial(n, extract.Options{
		Threads: 2, Preflight: true, Recorder: rec,
	}); err != nil {
		t.Fatal(err)
	}

	spans := rec.Spans()
	byID := make(map[int64]obs.SpanRecord, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	cones := 0
	for _, sp := range spans {
		if sp.Parent == 0 {
			if sp.Name != "extraction" {
				t.Errorf("root span %q, want only extraction", sp.Name)
			}
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("span %q has unrecorded parent %d", sp.Name, sp.Parent)
		}
		if parent.Name == "rewrite" {
			cones++
		}
		if sp.Start < parent.Start || sp.Start+sp.Duration > parent.Start+parent.Duration {
			t.Errorf("span %q [%v, %v] escapes parent %q [%v, %v]",
				sp.Name, sp.Start, sp.Start+sp.Duration,
				parent.Name, parent.Start, parent.Start+parent.Duration)
		}
	}
	if cones != 64 {
		t.Errorf("%d per-cone spans under rewrite, want 64", cones)
	}
}
