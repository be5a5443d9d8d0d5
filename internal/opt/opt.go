// Package opt implements logic optimization and technology mapping for
// combinational netlists. It stands in for the ABC flow ("optimized and
// mapped using ABC") that produces the bit-optimized multipliers of the
// paper's Table III:
//
//   - Simplify: constant propagation, buffer/double-inverter removal and
//     structural hashing (ABC's strash) — merges structurally identical
//     gates, which removes the redundancy of matrix-form Mastrovito
//     netlists;
//   - BalanceXor: rebuilds maximal XOR trees as balanced trees, cancelling
//     duplicated leaves mod 2 (ABC's balance, specialized to the XOR-
//     dominated structure of GF(2^m) multipliers);
//   - TechMap: maps onto a standard-cell-style library (NAND/NOR/XNOR/
//     INV/...), producing the kind of post-synthesis netlist shown in the
//     paper's Figure 2;
//   - Synthesize: the composed pipeline used for the Table III experiments.
//
// All passes preserve the circuit function exactly (ports, order and
// semantics), so extraction results are unchanged — only cost changes.
package opt

import (
	"fmt"
	"sort"

	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
)

// builder constructs an optimized copy of a netlist with hash-consing and
// local constant folding.
type builder struct {
	out    *netlist.Netlist
	cache  map[string]int
	consts [2]int // gate IDs of Const0/Const1 in out; -1 if absent
}

func newBuilder(name string) *builder {
	return &builder{
		out:    netlist.New(name),
		cache:  map[string]int{},
		consts: [2]int{-1, -1},
	}
}

func (b *builder) constant(one bool) (int, error) {
	idx := 0
	t := netlist.Const0
	if one {
		idx, t = 1, netlist.Const1
	}
	if b.consts[idx] == -1 {
		id, err := b.out.AddGate(t)
		if err != nil {
			return 0, err
		}
		b.consts[idx] = id
	}
	return b.consts[idx], nil
}

// isConst classifies a gate ID in the output netlist.
func (b *builder) isConst(id int) (val, ok bool) {
	switch b.out.Gate(id).Type {
	case netlist.Const0:
		return false, true
	case netlist.Const1:
		return true, true
	}
	return false, false
}

func (b *builder) not(x int) (int, error) {
	if v, ok := b.isConst(x); ok {
		return b.constant(!v)
	}
	// Double-inverter cancellation.
	if g := b.out.Gate(x); g.Type == netlist.Not {
		return g.Fanin[0], nil
	}
	return b.hashed(netlist.Not, x)
}

// hashed emits a gate with structural hashing; fanins of commutative gates
// are put in canonical order first.
func (b *builder) hashed(t netlist.GateType, fanin ...int) (int, error) {
	switch t {
	case netlist.And, netlist.Or, netlist.Xor, netlist.Xnor, netlist.Nand, netlist.Nor:
		if fanin[0] > fanin[1] {
			fanin[0], fanin[1] = fanin[1], fanin[0]
		}
	case netlist.Aoi21, netlist.Oai21:
		if fanin[0] > fanin[1] {
			fanin[0], fanin[1] = fanin[1], fanin[0]
		}
	case netlist.Aoi22, netlist.Oai22:
		if fanin[0] > fanin[1] {
			fanin[0], fanin[1] = fanin[1], fanin[0]
		}
		if fanin[2] > fanin[3] {
			fanin[2], fanin[3] = fanin[3], fanin[2]
		}
		if fanin[0] > fanin[2] || fanin[0] == fanin[2] && fanin[1] > fanin[3] {
			fanin[0], fanin[1], fanin[2], fanin[3] = fanin[2], fanin[3], fanin[0], fanin[1]
		}
	}
	key := fmt.Sprintf("%d|%v", t, fanin)
	if id, ok := b.cache[key]; ok {
		return id, nil
	}
	id, err := b.out.AddGate(t, fanin...)
	if err != nil {
		return 0, err
	}
	b.cache[key] = id
	return id, nil
}

// gate emits a logically simplified gate of type t over already-mapped
// fanins, folding constants and trivially equal inputs.
func (b *builder) gate(t netlist.GateType, fanin ...int) (int, error) {
	// Full constant folding first.
	allConst := true
	var in []bool
	for _, f := range fanin {
		v, ok := b.isConst(f)
		if !ok {
			allConst = false
			break
		}
		in = append(in, v)
	}
	if allConst && t != netlist.Lut {
		return b.constant(evalType(t, in))
	}

	c := func(i int) (bool, bool) { return b.isConst(fanin[i]) }
	switch t {
	case netlist.Const0:
		return b.constant(false)
	case netlist.Const1:
		return b.constant(true)
	case netlist.Buf:
		return fanin[0], nil
	case netlist.Not:
		return b.not(fanin[0])
	case netlist.And, netlist.Nand:
		x, y := fanin[0], fanin[1]
		neg := t == netlist.Nand
		if v, ok := c(0); ok {
			if !v {
				return b.constant(neg)
			}
			if neg {
				return b.not(y)
			}
			return y, nil
		}
		if v, ok := c(1); ok {
			if !v {
				return b.constant(neg)
			}
			if neg {
				return b.not(x)
			}
			return x, nil
		}
		if x == y {
			if neg {
				return b.not(x)
			}
			return x, nil
		}
	case netlist.Or, netlist.Nor:
		x, y := fanin[0], fanin[1]
		neg := t == netlist.Nor
		if v, ok := c(0); ok {
			if v {
				return b.constant(!neg)
			}
			if neg {
				return b.not(y)
			}
			return y, nil
		}
		if v, ok := c(1); ok {
			if v {
				return b.constant(!neg)
			}
			if neg {
				return b.not(x)
			}
			return x, nil
		}
		if x == y {
			if neg {
				return b.not(x)
			}
			return x, nil
		}
	case netlist.Xor, netlist.Xnor:
		x, y := fanin[0], fanin[1]
		neg := t == netlist.Xnor
		if v, ok := c(0); ok {
			if v != neg {
				return b.not(y)
			}
			return y, nil
		}
		if v, ok := c(1); ok {
			if v != neg {
				return b.not(x)
			}
			return x, nil
		}
		if x == y {
			return b.constant(neg)
		}
	case netlist.Mux:
		if v, ok := c(2); ok {
			if v {
				return fanin[1], nil
			}
			return fanin[0], nil
		}
		if fanin[0] == fanin[1] {
			return fanin[0], nil
		}
	}
	return b.hashed(t, fanin...)
}

// lut emits a (possibly shrunk) LUT: constant and duplicate fanins are
// eliminated by restricting the truth table, and degenerate tables collapse
// to constants, buffers or inverters.
func (b *builder) lut(table []bool, fanin []int) (int, error) {
	table = append([]bool(nil), table...)
	fanin = append([]int(nil), fanin...)
	// Iterate until fixpoint: removing one input can expose more.
	for {
		changed := false
		for i := 0; i < len(fanin); i++ {
			if v, ok := b.isConst(fanin[i]); ok {
				table = restrict(table, i, v)
				fanin = append(fanin[:i], fanin[i+1:]...)
				changed = true
				break
			}
			dup := -1
			for j := 0; j < i; j++ {
				if fanin[j] == fanin[i] {
					dup = j
					break
				}
			}
			if dup >= 0 {
				table = merge(table, dup, i)
				fanin = append(fanin[:i], fanin[i+1:]...)
				changed = true
				break
			}
			// Input i irrelevant?
			if irrelevant(table, i) {
				table = restrict(table, i, false)
				fanin = append(fanin[:i], fanin[i+1:]...)
				changed = true
				break
			}
		}
		if !changed {
			break
		}
	}
	switch len(fanin) {
	case 0:
		return b.constant(table[0])
	case 1:
		switch {
		case !table[0] && table[1]:
			return fanin[0], nil
		case table[0] && !table[1]:
			return b.not(fanin[0])
		}
		return b.constant(table[0])
	case 2:
		// Recognize the standard 2-input cells.
		idx := 0
		for i, v := range table {
			if v {
				idx |= 1 << uint(i)
			}
		}
		switch idx {
		case 0b1000:
			return b.gate(netlist.And, fanin[0], fanin[1])
		case 0b0111:
			return b.gate(netlist.Nand, fanin[0], fanin[1])
		case 0b1110:
			return b.gate(netlist.Or, fanin[0], fanin[1])
		case 0b0001:
			return b.gate(netlist.Nor, fanin[0], fanin[1])
		case 0b0110:
			return b.gate(netlist.Xor, fanin[0], fanin[1])
		case 0b1001:
			return b.gate(netlist.Xnor, fanin[0], fanin[1])
		}
	}
	key := fmt.Sprintf("L%v|%v", table, fanin)
	if id, ok := b.cache[key]; ok {
		return id, nil
	}
	id, err := b.out.AddLut(table, fanin...)
	if err != nil {
		return 0, err
	}
	b.cache[key] = id
	return id, nil
}

// restrict fixes input i of a truth table to value v.
func restrict(table []bool, i int, v bool) []bool {
	bit := 1 << uint(i)
	out := make([]bool, 0, len(table)/2)
	for row := range table {
		if row&bit == 0 {
			src := row
			if v {
				src |= bit
			}
			out = append(out, table[src])
		}
	}
	return out
}

// merge ties input j (later position) to input i of a truth table,
// removing input j.
func merge(table []bool, i, j int) []bool {
	bi, bj := 1<<uint(i), 1<<uint(j)
	out := make([]bool, 0, len(table)/2)
	for row := range table {
		if row&bj != 0 {
			continue
		}
		src := row
		if row&bi != 0 {
			src |= bj
		}
		// Re-pack remaining bits: rows without bit j, compacted.
		out = append(out, table[src])
	}
	return out
}

// irrelevant reports whether flipping input i never changes the output.
func irrelevant(table []bool, i int) bool {
	bit := 1 << uint(i)
	for row := range table {
		if row&bit == 0 && table[row] != table[row|bit] {
			return false
		}
	}
	return true
}

func evalType(t netlist.GateType, in []bool) bool {
	// Re-derive via netlist semantics using a throwaway simulation.
	n := netlist.New("tmp")
	ids := make([]int, len(in))
	words := make([]uint64, len(in))
	for i := range in {
		ids[i], _ = n.AddInput(fmt.Sprintf("i%d", i))
		if in[i] {
			words[i] = 1
		}
	}
	g, err := n.AddGate(t, ids...)
	if err != nil {
		panic(err)
	}
	vals, err := n.Simulate(words)
	if err != nil {
		panic(err)
	}
	return vals[g]&1 == 1
}

// sweepDead removes gates outside every output cone (dead-code
// elimination). Primary inputs are always kept so the port signature is
// preserved.
func sweepDead(n *netlist.Netlist) (*netlist.Netlist, error) {
	live := n.Live()
	out := netlist.New(n.Name)
	mapping := make([]int, n.NumGates())
	for i := range mapping {
		mapping[i] = -1
	}
	for _, id := range n.Inputs() {
		nid, err := out.AddInput(n.NameOf(id))
		if err != nil {
			return nil, err
		}
		mapping[id] = nid
	}
	for id := 0; id < n.NumGates(); id++ {
		g := n.Gate(id)
		if g.Type == netlist.Input || !live[id] {
			continue
		}
		fanin := mapped(mapping, g.Fanin)
		var nid int
		var err error
		if g.Type == netlist.Lut {
			nid, err = out.AddLut(g.Table, fanin...)
		} else {
			nid, err = out.AddGate(g.Type, fanin...)
		}
		if err != nil {
			return nil, err
		}
		mapping[id] = nid
	}
	outs := n.Outputs()
	names := n.OutputNames()
	for i, id := range outs {
		if err := out.MarkOutput(names[i], mapping[id]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rebuild walks n in topological order and reconstructs it through emit,
// preserving port names and order. emit receives the original gate and its
// fanins mapped into the new netlist.
func rebuild(n *netlist.Netlist, name string,
	emit func(b *builder, g netlist.Gate, fanin []int) (int, error)) (*netlist.Netlist, error) {
	b := newBuilder(name)
	mapping := make([]int, n.NumGates())
	for i := range mapping {
		mapping[i] = -1
	}
	for _, id := range n.Inputs() {
		nid, err := b.out.AddInput(n.NameOf(id))
		if err != nil {
			return nil, err
		}
		mapping[id] = nid
	}
	for id := 0; id < n.NumGates(); id++ {
		g := n.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		fanin := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			if mapping[f] == -1 {
				return nil, fmt.Errorf("opt: gate %d fanin %d not yet mapped", id, f)
			}
			fanin[i] = mapping[f]
		}
		nid, err := emit(b, g, fanin)
		if err != nil {
			return nil, err
		}
		mapping[id] = nid
	}
	outs := n.Outputs()
	names := n.OutputNames()
	for i, id := range outs {
		if err := b.out.MarkOutput(names[i], mapping[id]); err != nil {
			return nil, err
		}
	}
	return sweepDead(b.out)
}

// Simplify performs constant propagation, buffer and double-inverter
// removal, trivial-identity rewriting, structural hashing and dead-code
// elimination. Internal signal names are dropped, as a synthesis tool would.
func Simplify(n *netlist.Netlist) (*netlist.Netlist, error) {
	return rebuild(n, n.Name+"_simp", func(b *builder, g netlist.Gate, fanin []int) (int, error) {
		if g.Type == netlist.Lut {
			return b.lut(g.Table, fanin)
		}
		return b.gate(g.Type, fanin...)
	})
}

// BalanceXor rebuilds maximal trees of XOR gates as balanced trees,
// cancelling repeated leaves modulo 2. Non-XOR gates pass through with
// structural hashing. XNOR gates participate as XOR plus a constant-1 leaf,
// so chains of XNORs balance too.
func BalanceXor(n *netlist.Netlist) (*netlist.Netlist, error) {
	// Fanout counts decide which XOR nodes are absorbed into a parent tree:
	// only single-fanout XORs whose unique reader is also an XOR/XNOR.
	fanout := make([]int, n.NumGates())
	xorReaders := make([]int, n.NumGates())
	for id := 0; id < n.NumGates(); id++ {
		g := n.Gate(id)
		for _, f := range g.Fanin {
			fanout[f]++
			if g.Type == netlist.Xor || g.Type == netlist.Xnor {
				xorReaders[f]++
			}
		}
	}
	for _, id := range n.Outputs() {
		fanout[id]++
	}
	absorbed := make([]bool, n.NumGates())
	for id := 0; id < n.NumGates(); id++ {
		t := n.Gate(id).Type
		if (t == netlist.Xor || t == netlist.Xnor) && fanout[id] == 1 && xorReaders[id] == 1 {
			absorbed[id] = true
		}
	}

	b := newBuilder(n.Name + "_bal")
	mapping := make([]int, n.NumGates())
	for i := range mapping {
		mapping[i] = -1
	}
	for _, id := range n.Inputs() {
		nid, err := b.out.AddInput(n.NameOf(id))
		if err != nil {
			return nil, err
		}
		mapping[id] = nid
	}

	// leaves gathers the XOR-leaf multiset of node id (in original IDs),
	// following absorbed XOR children; inv counts XNOR inversions mod 2.
	var leaves func(id int, count map[int]int) (inv bool)
	leaves = func(id int, count map[int]int) bool {
		g := n.Gate(id)
		inv := g.Type == netlist.Xnor
		for _, f := range g.Fanin {
			fg := n.Gate(f)
			if absorbed[f] && (fg.Type == netlist.Xor || fg.Type == netlist.Xnor) {
				if leaves(f, count) {
					inv = !inv
				}
			} else {
				count[f]++
			}
		}
		return inv
	}

	for id := 0; id < n.NumGates(); id++ {
		g := n.Gate(id)
		if g.Type == netlist.Input || absorbed[id] {
			continue
		}
		var nid int
		var err error
		switch g.Type {
		case netlist.Xor, netlist.Xnor:
			count := map[int]int{}
			inv := leaves(id, count)
			var leafIDs []int
			for f, c := range count {
				if c%2 == 1 {
					leafIDs = append(leafIDs, mapping[f])
				}
			}
			sort.Ints(leafIDs)
			nid, err = b.xorBalanced(leafIDs, inv)
		case netlist.Lut:
			nid, err = b.lut(g.Table, mapped(mapping, g.Fanin))
		default:
			nid, err = b.gate(g.Type, mapped(mapping, g.Fanin)...)
		}
		if err != nil {
			return nil, err
		}
		mapping[id] = nid
	}
	outs := n.Outputs()
	names := n.OutputNames()
	for i, id := range outs {
		if err := b.out.MarkOutput(names[i], mapping[id]); err != nil {
			return nil, err
		}
	}
	return sweepDead(b.out)
}

func mapped(mapping []int, fanin []int) []int {
	out := make([]int, len(fanin))
	for i, f := range fanin {
		out[i] = mapping[f]
	}
	return out
}

// xorBalanced emits a balanced XOR tree over ids (new netlist IDs),
// inverting the result when inv is true.
func (b *builder) xorBalanced(ids []int, inv bool) (int, error) {
	if len(ids) == 0 {
		return b.constant(inv)
	}
	cur := append([]int(nil), ids...)
	for len(cur) > 1 {
		var next []int
		for i := 0; i+1 < len(cur); i += 2 {
			id, err := b.gate(netlist.Xor, cur[i], cur[i+1])
			if err != nil {
				return 0, err
			}
			next = append(next, id)
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	if inv {
		return b.not(cur[0])
	}
	return cur[0], nil
}

// MapStyle selects the target cell library flavor for TechMap.
type MapStyle int

const (
	// MapFuseInverters targets a rich library with AND2/OR2/XOR2 cells:
	// inverters fuse with a single-fanout AND/OR/XOR driver into
	// NAND/NOR/XNOR, everything else passes through. Never grows the
	// netlist; used by Synthesize.
	MapFuseInverters MapStyle = iota
	// MapNandHeavy additionally decomposes every remaining AND into
	// NAND+INV and OR into NOR+INV, producing the inverter-rich
	// post-mapping netlists (like the paper's Figure 2) at the price of
	// extra cells.
	MapNandHeavy
)

// TechMap maps the netlist onto a standard-cell-style library according to
// style. The result resembles the post-synthesis netlists of the paper's
// Figure 2 and Table III.
func TechMap(n *netlist.Netlist, style MapStyle) (*netlist.Netlist, error) {
	fanout := make([]int, n.NumGates())
	for id := 0; id < n.NumGates(); id++ {
		for _, f := range n.Gate(id).Fanin {
			fanout[f]++
		}
	}
	for _, id := range n.Outputs() {
		fanout[id]++
	}
	// fused[id] = true when the Not reading id absorbs it.
	fused := make([]bool, n.NumGates())
	for id := 0; id < n.NumGates(); id++ {
		g := n.Gate(id)
		if g.Type != netlist.Not {
			continue
		}
		d := g.Fanin[0]
		switch n.Gate(d).Type {
		case netlist.And, netlist.Or, netlist.Xor:
			if fanout[d] == 1 {
				fused[d] = true
			}
		}
	}

	b := newBuilder(n.Name + "_map")
	mapping := make([]int, n.NumGates())
	for i := range mapping {
		mapping[i] = -1
	}
	for _, id := range n.Inputs() {
		nid, err := b.out.AddInput(n.NameOf(id))
		if err != nil {
			return nil, err
		}
		mapping[id] = nid
	}
	for id := 0; id < n.NumGates(); id++ {
		g := n.Gate(id)
		if g.Type == netlist.Input || fused[id] {
			continue
		}
		var nid int
		var err error
		switch g.Type {
		case netlist.Not:
			d := g.Fanin[0]
			if fused[d] {
				dg := n.Gate(d)
				fin := mapped(mapping, dg.Fanin)
				switch dg.Type {
				case netlist.And:
					nid, err = b.gate(netlist.Nand, fin...)
				case netlist.Or:
					nid, err = b.gate(netlist.Nor, fin...)
				case netlist.Xor:
					nid, err = b.gate(netlist.Xnor, fin...)
				}
			} else {
				nid, err = b.gate(netlist.Not, mapping[d])
			}
		case netlist.And:
			if style == MapNandHeavy {
				nid, err = b.gate(netlist.Nand, mapped(mapping, g.Fanin)...)
				if err == nil {
					nid, err = b.gate(netlist.Not, nid)
				}
			} else {
				nid, err = b.gate(netlist.And, mapped(mapping, g.Fanin)...)
			}
		case netlist.Or:
			if style == MapNandHeavy {
				nid, err = b.gate(netlist.Nor, mapped(mapping, g.Fanin)...)
				if err == nil {
					nid, err = b.gate(netlist.Not, nid)
				}
			} else {
				nid, err = b.gate(netlist.Or, mapped(mapping, g.Fanin)...)
			}
		case netlist.Lut:
			nid, err = b.lut(g.Table, mapped(mapping, g.Fanin))
		default:
			nid, err = b.gate(g.Type, mapped(mapping, g.Fanin)...)
		}
		if err != nil {
			return nil, err
		}
		mapping[id] = nid
	}
	outs := n.Outputs()
	names := n.OutputNames()
	for i, id := range outs {
		if err := b.out.MarkOutput(names[i], mapping[id]); err != nil {
			return nil, err
		}
	}
	return sweepDead(b.out)
}

// Synthesize runs the full optimization pipeline used for the Table III
// experiments: strash/simplify, XOR balancing with mod-2 leaf cancellation,
// technology mapping, and a final cleanup.
func Synthesize(n *netlist.Netlist) (*netlist.Netlist, error) {
	return SynthesizeObserved(n, nil)
}

// SynthesizeObserved is Synthesize with every pass bracketed in a phase
// span on rec (opt.simplify, opt.balance-xor, opt.techmap, opt.sweep), each
// annotated with the equation count it produced. nil rec is valid.
func SynthesizeObserved(n *netlist.Netlist, rec *obs.Recorder) (*netlist.Netlist, error) {
	pass := func(name string, in *netlist.Netlist, f func(*netlist.Netlist) (*netlist.Netlist, error)) (*netlist.Netlist, error) {
		span := rec.StartSpan(name, map[string]int64{"eqns_in": int64(in.NumEquations())})
		out, err := f(in)
		span.End()
		if err == nil {
			rec.Metrics().Gauge("synth_eqns").Set(int64(out.NumEquations()))
		}
		return out, err
	}
	s, err := pass("opt.simplify", n, Simplify)
	if err != nil {
		return nil, err
	}
	s, err = pass("opt.balance-xor", s, BalanceXor)
	if err != nil {
		return nil, err
	}
	s, err = pass("opt.techmap", s, func(x *netlist.Netlist) (*netlist.Netlist, error) {
		return TechMap(x, MapFuseInverters)
	})
	if err != nil {
		return nil, err
	}
	s, err = pass("opt.sweep", s, Simplify)
	if err != nil {
		return nil, err
	}
	s.Name = n.Name + "_syn"
	return s, nil
}
