package main

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/galoisfield/gfre/internal/gf2poly"
)

// drawAll draws n designs per architecture from one seed.
func drawAll(t *testing.T, seed int64, m, n int) []*design {
	t.Helper()
	dr := newDrawer(seed)
	st := dr.stream("test")
	var out []*design
	for i := 0; i < n; i++ {
		for _, arch := range []string{mastrovito, montgomery} {
			d, err := st.next(arch, m)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
	}
	return out
}

func TestSameSeedSameDesigns(t *testing.T) {
	a, b := drawAll(t, 7, 16, 4), drawAll(t, 7, 16, 4)
	for i := range a {
		if !a[i].P.Equal(b[i].P) || !bytes.Equal(a[i].EQN, b[i].EQN) || a[i].Name != b[i].Name {
			t.Fatalf("design %d differs between two draws of seed 7: %v vs %v", i, a[i].P, b[i].P)
		}
	}
	c := drawAll(t, 8, 16, 4)
	same := 0
	for i := range a {
		if a[i].P.Equal(c[i].P) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 drew identical designs")
	}
}

func TestDrawsAreDistinctPentanomialsInBand(t *testing.T) {
	ds := drawAll(t, 3, 64, 6)
	seen := map[string]bool{}
	for _, d := range ds {
		key := d.Arch + d.P.String()
		if seen[key] {
			t.Fatalf("%s drawn twice in one run", key)
		}
		seen[key] = true
		terms := d.P.Terms()
		if len(terms) != 5 || !d.P.Irreducible() || d.P.Deg() != 64 {
			t.Fatalf("%v is not an irreducible pentanomial of degree 64", d.P)
		}
		mid := d.P.Add(gf2poly.Monomial(64)).Deg()
		if mid < minMiddle || mid >= maxMiddle {
			t.Fatalf("%v: middle term x^%d outside [%d, %d)", d.P, mid, minMiddle, maxMiddle)
		}
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	// A stream's draws do not depend on what other streams drew first, as
	// long as the draws do not collide.
	dr := newDrawer(11)
	want, err := dr.stream("well").next(mastrovito, 16)
	if err != nil {
		t.Fatal(err)
	}
	dr2 := newDrawer(11)
	if _, err := dr2.stream("replay").next(montgomery, 16); err != nil {
		t.Fatal(err)
	}
	got, err := dr2.stream("well").next(mastrovito, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !got.P.Equal(want.P) {
		t.Fatalf("well stream drew %v after another stream, %v alone", got.P, want.P)
	}
}

// TestSmallFactorPretest checks the pre-test against the full
// irreducibility test: run to half the degree it decides irreducibility,
// and it never rejects an irreducible polynomial.
func TestSmallFactorPretest(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		deg := 2 + r.Intn(40)
		f := gf2poly.RandomPoly(r, deg)
		if got, want := hasSmallFactor(f, deg), !f.Irreducible(); got != want {
			t.Fatalf("%v: small factor %v, reducible %v", f, got, want)
		}
		if f.Irreducible() && hasSmallFactor(f, smallFactorDegree) {
			t.Fatalf("%v: irreducible but rejected by the pre-test", f)
		}
	}
}
