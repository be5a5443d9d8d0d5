package gen

import (
	"fmt"

	"github.com/galoisfield/gfre/internal/netlist"
)

// Obfuscation transforms: the countermeasure side of the arms race
// ("Algorithmic Obfuscation over GF(2^m)", arXiv:1809.06207). A logic-locked
// multiplier adds key inputs whose correct value restores the original
// function and whose wrong values corrupt it; the extraction attack then
// faces 2^k candidate functions instead of one. These transforms exist so
// the defense can be tested against the detector netlint/sem builds on top
// of support tracking: a key input is *structurally* surplus (outside both
// operand vectors), and any output whose support contains one is key-gated.
//
// All styles plant the all-zeros correct key, so the obfuscated netlist
// composed with k = 0 is simulation-equivalent to the original — the
// property diffcheck's obfuscation campaign verifies before asserting the
// detector flags every planted key.

// ObfStyle selects the gating construction.
type ObfStyle int

const (
	// ObfXor splices w' = w XOR k_i into a victim wire's readers: the
	// classic XOR lock. Wrong key inverts the wire.
	ObfXor ObfStyle = iota
	// ObfMux routes a victim wire through MUX(w, NOT w, k_i): same
	// function as the XOR lock, but hidden behind a complex cell the way
	// technology mapping would leave it.
	ObfMux
	// ObfOpaque gates a victim wire with an opaquely-true AND tree over
	// complemented key bits (all-zero key -> tree is 1 -> wire passes).
	// The tree's support is key-only: the opaque-constant signature.
	ObfOpaque
)

func (s ObfStyle) String() string {
	switch s {
	case ObfXor:
		return "xor"
	case ObfMux:
		return "mux"
	case ObfOpaque:
		return "opaque"
	}
	return fmt.Sprintf("ObfStyle(%d)", int(s))
}

// ObfuscateOptions configures a key-gating transform.
type ObfuscateOptions struct {
	// Style is the gating construction.
	Style ObfStyle
	// Keys is the number of key inputs k0, k1, ... to plant (default 1;
	// capped at the number of distinct gateable wires).
	Keys int
	// Seed drives deterministic victim selection.
	Seed int64
}

// Obfuscation reports what was planted, in new-netlist gate IDs.
type Obfuscation struct {
	// Style echoes the construction used.
	Style ObfStyle
	// KeyInputs / KeyNames identify the planted key ports.
	KeyInputs []int
	KeyNames  []string
	// Victims are the gated wires (the pre-gating signal IDs).
	Victims []int
}

// splitmix64 is the deterministic placement PRNG (no global rand state;
// identical seeds replay identical transforms).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Obfuscate rebuilds n with Keys planted key inputs gating randomly chosen
// reachable wires. The returned netlist computes the original function when
// every key input is 0.
func Obfuscate(n *netlist.Netlist, o ObfuscateOptions) (*netlist.Netlist, *Obfuscation, error) {
	if o.Keys < 1 {
		o.Keys = 1
	}

	// Victim pool: non-input gates inside some output's cone (a gated wire
	// outside every cone would be undetectable and unverifiable).
	reach := n.Live()
	var pool []int
	for id := 0; id < n.NumGates(); id++ {
		if reach[id] && n.Gate(id).Type != netlist.Input {
			pool = append(pool, id)
		}
	}
	if len(pool) == 0 {
		// Degenerate (outputs wired straight to inputs): gate the inputs.
		for _, id := range n.Inputs() {
			if reach[id] {
				pool = append(pool, id)
			}
		}
	}
	if len(pool) == 0 {
		return nil, nil, fmt.Errorf("gen: nothing reachable to obfuscate in %q", n.Name)
	}

	// Victim count: one per key for xor/mux; opaque groups several key
	// bits into one comparator tree per victim.
	groupSize := 1
	if o.Style == ObfOpaque {
		groupSize = 4
	}
	nvictims := (o.Keys + groupSize - 1) / groupSize
	if nvictims > len(pool) {
		nvictims = len(pool)
		o.Keys = nvictims * groupSize
	}

	// Deterministic sample without replacement (partial Fisher-Yates).
	state := uint64(o.Seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	victims := make([]int, 0, nvictims)
	for i := 0; i < nvictims; i++ {
		j := i + int(splitmix64(&state)%uint64(len(idx)-i))
		idx[i], idx[j] = idx[j], idx[i]
		victims = append(victims, pool[idx[i]])
	}

	out := netlist.New(n.Name + "_obf")
	remap := make([]int, n.NumGates())
	for i := range remap {
		remap[i] = -1
	}

	// Original inputs first, preserving port order and names.
	for _, id := range n.Inputs() {
		nid, err := out.AddInput(n.NameOf(id))
		if err != nil {
			return nil, nil, fmt.Errorf("gen: obfuscate: %w", err)
		}
		remap[id] = nid
	}
	// Then the key inputs.
	info := &Obfuscation{Style: o.Style}
	for i := 0; i < o.Keys; i++ {
		name := fmt.Sprintf("k%d", i)
		nid, err := out.AddInput(name)
		if err != nil {
			return nil, nil, fmt.Errorf("gen: obfuscate: key input %s: %w", name, err)
		}
		info.KeyInputs = append(info.KeyInputs, nid)
		info.KeyNames = append(info.KeyNames, name)
	}

	isVictim := map[int]int{} // original gate ID -> victim ordinal
	for i, v := range victims {
		isVictim[v] = i
	}
	nextKey := 0

	gate := func(w, ordinal int) (int, error) {
		switch o.Style {
		case ObfXor:
			k := info.KeyInputs[nextKey]
			nextKey++
			return out.AddGate(netlist.Xor, w, k)
		case ObfMux:
			k := info.KeyInputs[nextKey]
			nextKey++
			nw, err := out.AddGate(netlist.Not, w)
			if err != nil {
				return 0, err
			}
			return out.AddGate(netlist.Mux, w, nw, k)
		case ObfOpaque:
			// t = AND of NOT(k_j) over this victim's key group; opaque 1
			// under the correct (all-zero) key.
			tree := -1
			for j := 0; j < groupSize && nextKey < len(info.KeyInputs); j++ {
				nk, err := out.AddGate(netlist.Not, info.KeyInputs[nextKey])
				nextKey++
				if err != nil {
					return 0, err
				}
				if tree < 0 {
					tree = nk
					continue
				}
				if tree, err = out.AddGate(netlist.And, tree, nk); err != nil {
					return 0, err
				}
			}
			if tree < 0 {
				return w, nil
			}
			return out.AddGate(netlist.And, w, tree)
		}
		return 0, fmt.Errorf("gen: unknown obfuscation style %v", o.Style)
	}

	// Replay the DAG in topological order; a victim's mapping is swapped to
	// its gated replacement so every downstream reader (and output marking)
	// sees the locked wire.
	for id := 0; id < n.NumGates(); id++ {
		g := n.Gate(id)
		if g.Type == netlist.Input {
			// Already mapped; inputs can still be victims (degenerate pool).
			if ord, ok := isVictim[id]; ok {
				gid, err := gate(remap[id], ord)
				if err != nil {
					return nil, nil, fmt.Errorf("gen: obfuscate: %w", err)
				}
				info.Victims = append(info.Victims, remap[id])
				remap[id] = gid
			}
			continue
		}
		fanin := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = remap[f]
		}
		var (
			nid int
			err error
		)
		if g.Type == netlist.Lut {
			nid, err = out.AddLut(append([]bool(nil), g.Table...), fanin...)
		} else {
			nid, err = out.AddGate(g.Type, fanin...)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("gen: obfuscate: gate %d: %w", id, err)
		}
		// Preserve real signal names (anonymous gates get none).
		if name := n.NameOf(id); name != "" {
			if lid, ok := n.Lookup(name); ok && lid == id {
				if err := out.SetSignalName(nid, name); err != nil {
					return nil, nil, fmt.Errorf("gen: obfuscate: name %q: %w", name, err)
				}
			}
		}
		remap[id] = nid
		if _, ok := isVictim[id]; ok {
			gid, err := gate(nid, isVictim[id])
			if err != nil {
				return nil, nil, fmt.Errorf("gen: obfuscate: %w", err)
			}
			info.Victims = append(info.Victims, nid)
			remap[id] = gid
		}
	}

	names := n.OutputNames()
	for i, oid := range n.Outputs() {
		if err := out.MarkOutput(names[i], remap[oid]); err != nil {
			return nil, nil, fmt.Errorf("gen: obfuscate: output %s: %w", names[i], err)
		}
	}
	return out, info, nil
}
