package rewrite

import (
	"fmt"
	"slices"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/opt"
	"github.com/galoisfield/gfre/internal/polytab"
)

// sweepDesign builds one of the architectures the sweep tests run on.
func sweepDesign(t *testing.T, arch string, m int) *netlist.Netlist {
	t.Helper()
	p, err := polytab.Default(m)
	if err != nil {
		t.Fatal(err)
	}
	var n *netlist.Netlist
	switch arch {
	case "mastrovito":
		n, err = gen.Mastrovito(m, p)
	case "montgomery", "synth-montgomery":
		n, err = gen.Montgomery(m, p)
	}
	if err == nil && arch == "synth-montgomery" {
		n, err = opt.Synthesize(n)
	}
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSweepMatchesDescendingCone: the default sweep, which reaches only
// the fanins of gates it substituted, performs exactly the substitutions of
// the explicit descending walk over the whole cone — same counters, same
// expression — on every architecture.
func TestSweepMatchesDescendingCone(t *testing.T) {
	sizes := []int{16, 64, 163}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, m := range sizes {
		for _, arch := range []string{"mastrovito", "montgomery", "synth-montgomery"} {
			t.Run(fmt.Sprintf("%s/m%d", arch, m), func(t *testing.T) {
				n := sweepDesign(t, arch, m)
				for bit, root := range n.Outputs() {
					sweep, err := rewriteOutput(n, root, nil, nil, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					order := n.Cone(root)
					slices.Reverse(order)
					walk, err := rewriteOutput(n, root, nil, nil, order, nil)
					if err != nil {
						t.Fatal(err)
					}
					if sweep.Substitutions != walk.Substitutions || sweep.PeakTerms != walk.PeakTerms ||
						sweep.Cancelled != walk.Cancelled || sweep.FinalTerms != walk.FinalTerms {
						t.Fatalf("bit %d: sweep %+v, cone walk %+v", bit, sweep.BitStats, walk.BitStats)
					}
					if !sweep.Expr.Equal(walk.Expr) {
						t.Fatalf("bit %d: expressions differ", bit)
					}
					if sweep.ConeGates > walk.ConeGates {
						t.Fatalf("bit %d: sweep reached %d gates of a %d-gate cone", bit, sweep.ConeGates, walk.ConeGates)
					}
				}
			})
		}
	}
}

// TestSweepReachedCounts pins the gates the sweep reaches at m=64, summed
// over all outputs. Montgomery cancels most of its cone away, so the sweep
// reaches under a tenth of it; Mastrovito substitutes every cone gate.
func TestSweepReachedCounts(t *testing.T) {
	for _, tc := range []struct {
		arch           string
		reached, cones int
	}{
		{"montgomery", 37564, 461808},
		{"mastrovito", 30006, 30006},
	} {
		n := sweepDesign(t, tc.arch, 64)
		res, err := Outputs(n, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		reached, cones := 0, 0
		for bit, root := range n.Outputs() {
			reached += res.Bits[bit].ConeGates
			cones += n.ConeSize(root)
		}
		if reached != tc.reached || cones != tc.cones {
			t.Errorf("%s m=64: sweep reached %d of %d cone gates, want %d of %d",
				tc.arch, reached, cones, tc.reached, tc.cones)
		}
	}
}
