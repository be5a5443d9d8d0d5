package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
)

// Multiplier architectures the benchmark generates.
const (
	mastrovito = "mastrovito"
	montgomery = "montgomery"
)

// Middle terms of a drawn pentanomial x^m + x^a + x^b + x^c + 1 satisfy
// 0 < c < b < a with minMiddle <= a < maxMiddle: the low-middle-term shape
// of the standard binary-field polynomials (NIST B-283 is
// x^283+x^12+x^7+x^5+1). Rewriting cost grows steeply with a, so a fixed
// band keeps every draw the same kind of design and the per-run means
// comparable across seeds.
const (
	minMiddle = 5
	maxMiddle = 64
)

// design is one generated multiplier netlist with its planted polynomial.
type design struct {
	Name string
	Arch string
	M    int
	P    gf2poly.Poly
	EQN  []byte
	// Build is the wall time of generating the netlist and serializing it
	// to EQN: the design's share of set-up. Drawing P(x) is left out; its
	// rejection sampling takes a random number of tries.
	Build time.Duration
}

// drawer draws distinct designs from a seed. Streams share one record of
// the polynomials already drawn, so no content repeats within a run.
type drawer struct {
	seed int64
	used map[string]bool
}

func newDrawer(seed int64) *drawer { return &drawer{seed: seed, used: map[string]bool{}} }

// stream is an independent, reproducible sequence of draws named by label:
// the same seed and label always give the same designs, whatever other
// streams are drawn in between.
type stream struct {
	d     *drawer
	label string
	r     *rand.Rand
	n     int
}

func (d *drawer) stream(label string) *stream {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &stream{d: d, label: label, r: rand.New(rand.NewSource(d.seed ^ int64(h.Sum64())))}
}

// pentanomial draws an irreducible x^m + x^a + x^b + x^c + 1 with the middle
// terms in the benchmark's band that this run has not used for arch yet.
func (s *stream) pentanomial(arch string, m int) (gf2poly.Poly, error) {
	hi := maxMiddle
	if hi > m {
		hi = m
	}
	for try := 0; try < 1_000_000; try++ {
		a := minMiddle + s.r.Intn(hi-minMiddle)
		b := 2 + s.r.Intn(a-2)
		c := 1 + s.r.Intn(b-1)
		p := gf2poly.FromTerms(m, a, b, c, 0)
		key := fmt.Sprintf("%s/%v", arch, p)
		if s.d.used[key] || hasSmallFactor(p, smallFactorDegree) || !p.Irreducible() {
			continue
		}
		s.d.used[key] = true
		return p, nil
	}
	return gf2poly.Poly{}, fmt.Errorf("no unused irreducible pentanomial of degree %d", m)
}

// smallFactorDegree bounds the cheap pre-test of a drawn candidate. Most
// reducible polynomials have a factor of low degree, so the pre-test throws
// them out before the full irreducibility test; at m=571 this cuts a draw
// from about 5.6 s to 0.5 s on two cores. The draws are the same either way.
const smallFactorDegree = 96

// hasSmallFactor reports whether f has an irreducible factor of degree at
// most d: the first d steps of Ben-Or's test, gcd(f, x^(2^i) - x) != 1.
func hasSmallFactor(f gf2poly.Poly, d int) bool {
	x := gf2poly.X()
	s := x
	for i := 1; i <= d && 2*i <= f.Deg(); i++ {
		s = s.SquareMod(f)
		if !gf2poly.GCD(f, s.Add(x)).IsOne() {
			return true
		}
	}
	return false
}

// next draws and builds the stream's next design.
func (s *stream) next(arch string, m int) (*design, error) {
	p, err := s.pentanomial(arch, m)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	start := time.Now()
	var n *netlist.Netlist
	switch arch {
	case mastrovito:
		n, err = gen.Mastrovito(m, p)
	case montgomery:
		n, err = gen.Montgomery(m, p)
	default:
		err = fmt.Errorf("unknown architecture %q", arch)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		return nil, err
	}
	s.n++
	return &design{
		Name:  fmt.Sprintf("%s_%s%d_%d", s.label, arch, m, s.n),
		Arch:  arch,
		M:     m,
		P:     p,
		EQN:   buf.Bytes(),
		Build: time.Since(start),
	}, nil
}
