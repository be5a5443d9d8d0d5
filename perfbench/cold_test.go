package main

import (
	"context"
	"errors"
	"os"
	"testing"

	"github.com/galoisfield/gfre/internal/gf2poly"
)

// TestMain lets the test binary serve as the cold extraction process, the
// way the benchmark binary serves itself.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "--"+coldFlag {
		os.Exit(runCold(os.Args[2], os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

func TestColdExtract(t *testing.T) {
	ctx := context.Background()
	st := newDrawer(2).stream("cold-test")
	for _, arch := range []string{mastrovito, montgomery} {
		d, err := st.next(arch, 32)
		if err != nil {
			t.Fatal(err)
		}
		took, peak, err := coldExtract(ctx, d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if took <= 0 || peak <= 0 {
			t.Fatalf("%s: took %v, peak %v MiB", d.Name, took, peak)
		}
		// A design planted with one polynomial but checked against another
		// is a wrong result, not an error.
		d.P = gf2poly.FromTerms(32, 7, 3, 2, 0)
		if _, _, err := coldExtract(ctx, d); !errors.Is(err, errWrongPoly) {
			t.Fatalf("%s: wrong planted P(x) gave %v", d.Name, err)
		}
	}
}
