package extract

import (
	"fmt"
	"sort"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// Port inference recovers the multiplier's port mapping — which inputs form
// operand A vs B, the bit order within each operand, and the numeric order
// of the outputs — purely from the extracted ANF expressions. The paper
// assumes this mapping is known (its benchmarks use canonical a/b/z names);
// real third-party netlists are often anonymized or scrambled, which this
// extension handles.
//
// The structure that makes inference possible:
//
//   - every monomial of a multiplier's ANF is a product a_i·b_j of one bit
//     from each operand, and every (i,j) pair occurs somewhere, so the
//     monomial graph on inputs is the complete bipartite graph K_{m,m};
//     two-coloring it recovers the operand partition (A/B roles are
//     interchangeable — multiplication commutes);
//   - the product a_i·b_j lives only in the partial sum s_{i+j}; for
//     i+j < m, s_{i+j} feeds exactly output bit i+j, while for i+j >= m the
//     field reduction spreads it over the (normally several) nonzero
//     positions of x^(i+j) mod P. Hence bit index i of an A-input equals
//     the number of its pair-products whose occurrence set is not a
//     singleton — a_0 has none, a_{m-1} has m-1 — and symmetrically for B;
//   - with a_0 and the B order known, output z_k is the unique output
//     containing a_0·b_k.
//
// The counting argument assumes x^k mod P(x) has weight >= 2 for
// m <= k <= 2m-2, which holds unless the multiplicative order of x in the
// field is below 2m-1 (possible only for non-primitive P of special form);
// InferPorts detects the resulting ambiguity and reports it instead of
// guessing, and IrreduciblePolynomial verifies the inferred mapping against
// the golden model anyway.

// InferredPorts is a recovered port mapping.
type InferredPorts struct {
	// A, B hold operand input gate IDs, LSB first.
	A, B []int
	// OutputOrder maps logical bit k to the netlist output position that
	// carries z_k.
	OutputOrder []int
}

// InferPorts recovers the port mapping from rewritten output expressions.
func InferPorts(n *netlist.Netlist, rw *rewrite.Result) (*InferredPorts, error) {
	m := len(rw.Bits)
	ins := n.Inputs()
	// Dangling inputs (test pins, tied-off scan ports) are tolerated: only
	// the 2m inputs that actually appear in the output expressions matter.
	if len(ins) < 2*m {
		return nil, fmt.Errorf("%w: %d inputs for %d outputs (need at least 2m)", ErrBadPorts, len(ins), m)
	}

	// occ[mono] = set of output positions whose expression contains mono.
	occ := map[anf.Mono]map[int]struct{}{}
	partners := map[anf.Var]map[anf.Var]struct{}{}
	for pos, br := range rw.Bits {
		for _, mono := range br.Expr.Monos() {
			vars := mono.Vars()
			if len(vars) != 2 {
				return nil, fmt.Errorf("%w: output %d has a degree-%d monomial; multiplier ANF monomials are a_i·b_j",
					ErrNotMultiplier, pos, len(vars))
			}
			set := occ[mono]
			if set == nil {
				set = map[int]struct{}{}
				occ[mono] = set
			}
			set[pos] = struct{}{}
			u, v := vars[0], vars[1]
			if partners[u] == nil {
				partners[u] = map[anf.Var]struct{}{}
			}
			if partners[v] == nil {
				partners[v] = map[anf.Var]struct{}{}
			}
			partners[u][v] = struct{}{}
			partners[v][u] = struct{}{}
		}
	}
	if len(partners) != 2*m {
		return nil, fmt.Errorf("%w: %d inputs appear in the output expressions, want exactly %d",
			ErrNotMultiplier, len(partners), 2*m)
	}

	// Two-color the monomial graph to split the operands, starting from any
	// participating input (the first input port may be dangling).
	color := map[anf.Var]int{}
	var queue []anf.Var
	var start anf.Var
	for _, id := range ins {
		if _, ok := partners[anf.Var(id)]; ok {
			start = anf.Var(id)
			break
		}
	}
	color[start] = 0
	queue = append(queue, start)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range partners[u] {
			if c, ok := color[v]; ok {
				if c == color[u] {
					return nil, fmt.Errorf("%w: monomial graph is not bipartite", ErrNotMultiplier)
				}
				continue
			}
			color[v] = 1 - color[u]
			queue = append(queue, v)
		}
	}
	if len(color) != 2*m {
		return nil, fmt.Errorf("%w: monomial graph is disconnected (%d of %d inputs reached)",
			ErrNotMultiplier, len(color), 2*m)
	}
	var sideA, sideB []anf.Var
	for v, c := range color {
		if c == 0 {
			sideA = append(sideA, v)
		} else {
			sideB = append(sideB, v)
		}
	}
	if len(sideA) != m || len(sideB) != m {
		return nil, fmt.Errorf("%w: operand split is %d/%d, want %d/%d",
			ErrNotMultiplier, len(sideA), len(sideB), m, m)
	}

	// Bit order: index of u = number of pair-products whose occurrence set
	// is not a singleton.
	orderSide := func(side []anf.Var) ([]anf.Var, error) {
		type scored struct {
			v     anf.Var
			multi int
		}
		scoredVars := make([]scored, 0, len(side))
		for _, u := range side {
			multi := 0
			for v := range partners[u] {
				if len(occ[anf.NewMono(u, v)]) > 1 {
					multi++
				}
			}
			scoredVars = append(scoredVars, scored{u, multi})
		}
		sort.Slice(scoredVars, func(i, j int) bool { return scoredVars[i].multi < scoredVars[j].multi })
		out := make([]anf.Var, len(scoredVars))
		for i, s := range scoredVars {
			if s.multi != i {
				return nil, fmt.Errorf("%w: ambiguous bit order (multi-count %d at rank %d; is P(x) of unusually low order?)",
					ErrBadPorts, s.multi, i)
			}
			out[i] = s.v
		}
		return out, nil
	}
	orderedA, err := orderSide(sideA)
	if err != nil {
		return nil, err
	}
	orderedB, err := orderSide(sideB)
	if err != nil {
		return nil, err
	}

	// Output order: z_k is the unique output containing a_0·b_k.
	outputOrder := make([]int, m)
	seen := map[int]bool{}
	for k := 0; k < m; k++ {
		set := occ[anf.NewMono(orderedA[0], orderedB[k])]
		if len(set) != 1 {
			return nil, fmt.Errorf("%w: a_0·b_%d appears in %d outputs, want 1", ErrBadPorts, k, len(set))
		}
		var pos int
		for p := range set {
			pos = p
		}
		if seen[pos] {
			return nil, fmt.Errorf("%w: output %d claimed by two bit positions", ErrBadPorts, pos)
		}
		seen[pos] = true
		outputOrder[k] = pos
	}

	ip := &InferredPorts{OutputOrder: outputOrder}
	for _, v := range orderedA {
		ip.A = append(ip.A, int(v))
	}
	for _, v := range orderedB {
		ip.B = append(ip.B, int(v))
	}
	return ip, nil
}

// ReorderBits returns a copy of rw with the bit slice permuted into logical
// order: element k of the result is the expression of z_k.
func (ip *InferredPorts) ReorderBits(rw *rewrite.Result) *rewrite.Result {
	out := *rw
	out.Bits = make([]rewrite.BitResult, len(rw.Bits))
	out.Failed = nil
	for k, pos := range ip.OutputOrder {
		out.Bits[k] = rw.Bits[pos]
		if out.Bits[k].Status.Failed() {
			out.Failed = append(out.Failed, k)
		}
	}
	return &out
}

// IrreduciblePolynomialInferred reverse engineers P(x) from a multiplier
// netlist whose port naming and ordering are unknown or scrambled: the
// operand partition, bit order and output order are inferred from the
// expressions before Algorithm 2 runs. Golden-model verification uses the
// inferred mapping.
func IrreduciblePolynomialInferred(n *netlist.Netlist, opts Options) (*Extraction, *InferredPorts, error) {
	out, err := (&run{opts: opts, cones: rewrite.Outputs, term: termInferred}).do(n)
	return out.ext, out.ports, err
}
