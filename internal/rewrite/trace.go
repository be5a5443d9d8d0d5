package rewrite

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/netlist"
)

// FormatPoly renders an ANF polynomial with netlist signal names instead of
// raw variable IDs — the notation of the paper's Figure 3 (e.g.
// "a0·b1+a1·b0+a1·b1").
func FormatPoly(p anf.Poly, n *netlist.Netlist) string {
	if p.IsZero() {
		return "0"
	}
	monos := p.Monos()
	parts := make([]string, 0, len(monos))
	for _, m := range monos {
		if m.IsOne() {
			parts = append(parts, "1")
			continue
		}
		vars := m.Vars()
		names := make([]string, len(vars))
		for i, v := range vars {
			names[i] = n.NameOf(int(v))
		}
		sort.Strings(names)
		parts = append(parts, strings.Join(names, "·"))
	}
	sort.Strings(parts)
	return strings.Join(parts, "+")
}

// TraceOutput rewrites the single output driven by gate root exactly like
// Output, but logs every iteration of Algorithm 1 to w in the style of the
// paper's Figure 3: the gate substituted, the polynomial after mod-2
// simplification, and the number of monomials cancelled in the step.
// Intended for small designs (the full expression is printed per step).
func TraceOutput(n *netlist.Netlist, root int, w io.Writer) (BitResult, error) {
	br := BitResult{}
	f := anf.Variable(anf.Var(root))
	br.PeakTerms = 1
	varOf := func(id int) anf.Var { return anf.Var(id) }
	fmt.Fprintf(w, "F0 = %s\n", n.NameOf(root))

	var err error
	br.ConeGates, err = n.Descend(root, func(id int) (bool, error) {
		g := n.Gate(id)
		if g.Type == netlist.Input {
			return false, nil
		}
		v := anf.Var(id)
		k := f.VarOccurrences(v)
		if k == 0 {
			return false, nil
		}
		e, err := n.GateANF(id, varOf)
		if err != nil {
			return false, err
		}
		before := f.Len()
		f.Substitute(v, e)
		br.Substitutions++
		after := f.Len()
		// Exact count of the terms the expansion produced: each of the k
		// occurrences of v expands to |e| terms, so the pre-cancellation
		// size is before-k+k·|e| and the shortfall is the number of mod-2
		// cancellations ("2x"-style eliminations) — always an even number,
		// since collisions vanish in pairs.
		produced := before - k + k*e.Len()
		br.Cancelled += produced - after
		elim := ""
		if after < produced {
			elim = fmt.Sprintf("   [%d terms cancelled mod 2]", produced-after)
		}
		fmt.Fprintf(w, "%-6s %s = %-24s F%d = %s%s\n",
			n.NameOf(id)+":", g.Type, FormatPoly(e, n), br.Substitutions, FormatPoly(f, n), elim)
		if after > br.PeakTerms {
			br.PeakTerms = after
		}
		return true, nil
	})
	if err != nil {
		return br, err
	}
	br.Expr = f
	br.FinalTerms = f.Len()
	return br, nil
}
