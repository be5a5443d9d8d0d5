package netlist_test

import (
	"math/rand"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/randnet"
)

// TestLiveIsUnionOfOutputCones: the one all-outputs sweep marks exactly the
// gates some Cone(out) contains, on multipliers (every gate live) and on
// random DAGs with dead logic.
func TestLiveIsUnionOfOutputCones(t *testing.T) {
	check := func(t *testing.T, n *netlist.Netlist) (dead int) {
		t.Helper()
		want := make([]bool, n.NumGates())
		for _, out := range n.Outputs() {
			for _, id := range n.Cone(out) {
				want[id] = true
			}
		}
		live := n.Live()
		if len(live) != n.NumGates() {
			t.Fatalf("Live has %d entries for %d gates", len(live), n.NumGates())
		}
		for id := range want {
			if live[id] != want[id] {
				t.Fatalf("gate %d (%s): Live %v, union of output cones %v", id, n.NameOf(id), live[id], want[id])
			}
			if !want[id] {
				dead++
			}
		}
		return dead
	}
	for _, m := range []int{16, 64} {
		p, err := polytab.Default(m)
		if err != nil {
			t.Fatal(err)
		}
		mast, err := gen.Mastrovito(m, p)
		if err != nil {
			t.Fatal(err)
		}
		check(t, mast)
		mont, err := gen.Montgomery(m, p)
		if err != nil {
			t.Fatal(err)
		}
		check(t, mont)
	}
	dead := 0
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, err := randnet.New(r, randnet.Config{Inputs: 6, Gates: 80, Outputs: 3, Luts: true, Constants: true})
		if err != nil {
			t.Fatal(err)
		}
		dead += check(t, n)
	}
	if dead == 0 {
		t.Fatal("the random DAGs had no dead logic; the test does not cover it")
	}
}
