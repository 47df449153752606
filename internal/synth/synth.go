package synth

import (
	"fmt"

	"ndetect/internal/circuit"
	"ndetect/internal/encode"
	"ndetect/internal/kiss"
)

// Options controls synthesis.
type Options struct {
	// EncodingStyle selects the state encoding (encode.Binary by default).
	EncodingStyle string
	// MultiLevel enables common-cube extraction and fanin-capped tree
	// decomposition (see multilevel.go). The benchmark suite synthesizes
	// multi-level netlists, matching the character of the paper's circuits;
	// two-level PLA mapping remains available for the ablation bench.
	MultiLevel bool
	// MaxFanin caps gate fanin in multi-level mapping (default 4).
	MaxFanin int
}

// Result bundles the synthesized circuit with the mapping information a
// caller needs to interpret it.
type Result struct {
	Circuit  *circuit.Circuit
	STG      *kiss.STG
	Encoding *encode.Encoding

	// NumPIs and StateBits partition the circuit inputs: inputs
	// [0,NumPIs) are the machine's primary inputs, inputs
	// [NumPIs, NumPIs+StateBits) are present-state lines.
	NumPIs    int
	StateBits int
	// NumPOs and StateBits partition the circuit outputs the same way:
	// outputs [0,NumPOs) are machine outputs, the rest next-state bits.
	NumPOs int
}

// TotalInputs returns the circuit's input count (PIs + state lines).
func (r *Result) TotalInputs() int { return r.NumPIs + r.StateBits }

// Synthesize builds the combinational logic of the machine: a circuit with
// NumInputs+StateBits inputs and NumOutputs+StateBits outputs implementing
// the output and next-state functions under the chosen state encoding.
//
// Unspecified (state, input) combinations — including unused state codes —
// synthesize to all-zero outputs and next-state code 0, the natural
// consequence of building ON-set covers only. A nondeterministic machine
// is refused: its ON-set covers would OR conflicting transitions together.
// The input count is not bounded here; the exhaustive analysis checks its
// own limit (sim.MaxInputs), and wider circuits go through partitioning.
func Synthesize(m *kiss.STG, opts Options) (*Result, error) {
	if err := m.CheckDeterministic(); err != nil {
		return nil, fmt.Errorf("synth: machine is not deterministic: %w", err)
	}
	style := opts.EncodingStyle
	if style == "" {
		style = encode.Binary
	}
	enc, err := encode.New(style, m)
	if err != nil {
		return nil, err
	}

	covers, err := BuildCovers(m, enc)
	if err != nil {
		return nil, err
	}
	for i := range covers {
		covers[i] = covers[i].Reduce()
	}

	var c *circuit.Circuit
	if opts.MultiLevel {
		c, err = mapMultiLevel(m.Name, m.NumInputs, enc.Bits, m.NumOutputs, opts.MaxFanin, covers)
	} else {
		c, err = mapToNetlist(m.Name, m.NumInputs, enc.Bits, m.NumOutputs, covers)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Circuit:   c,
		STG:       m,
		Encoding:  enc,
		NumPIs:    m.NumInputs,
		StateBits: enc.Bits,
		NumPOs:    m.NumOutputs,
	}, nil
}

// BuildCovers collects the ON-set cube cover of every function: first the
// NumOutputs machine outputs, then the StateBits next-state bits (bit
// enc.Bits-1 first, i.e. next-state lines in MSB-first order matching the
// present-state input order).
//
// Cube variable numbering: variable width-1 (MSB) is machine input 0,
// descending through the inputs, then present-state code bit enc.Bits-1 down
// to code bit 0 (LSB of the cube). This matches circuit.VectorBit's
// MSB-first convention with the input ordering x0..x(n-1), s0..s(b-1).
func BuildCovers(m *kiss.STG, enc *encode.Encoding) ([]Cover, error) {
	nf := m.NumOutputs + enc.Bits
	covers := make([]Cover, nf)
	for _, tr := range m.Transitions {
		from, ok := m.StateIndex(tr.From)
		if !ok {
			return nil, fmt.Errorf("synth: unknown state %q", tr.From)
		}
		to, ok := m.StateIndex(tr.To)
		if !ok {
			return nil, fmt.Errorf("synth: unknown state %q", tr.To)
		}
		cube, err := NewCube(tr.Input + enc.CodeString(from))
		if err != nil {
			return nil, err
		}
		for k := 0; k < m.NumOutputs; k++ {
			if tr.Output[k] == '1' {
				covers[k] = append(covers[k], cube)
			}
		}
		for b := 0; b < enc.Bits; b++ {
			// Function index for next-state line b (MSB-first): machine
			// outputs first, then code bit enc.Bits-1 at index NumOutputs.
			if enc.CodeBit(to, enc.Bits-1-b) {
				covers[m.NumOutputs+b] = append(covers[m.NumOutputs+b], cube)
			}
		}
	}
	return covers, nil
}

// mapToNetlist converts the covers to an AND/OR/NOT netlist with shared
// input inverters and PLA-style shared product terms: a cube used by
// several functions is materialized as one AND gate fanning out to each
// function's OR — the structure a PLA or any term-sharing synthesis flow
// produces, and the source of the fanout/reconvergence the fault analysis
// depends on.
func mapToNetlist(name string, numPIs, stateBits, numPOs int, covers []Cover) (*circuit.Circuit, error) {
	width := numPIs + stateBits
	b := circuit.NewBuilder(name)

	// Input order: x0..x(numPIs-1), s0..s(stateBits-1). Cube variable v
	// corresponds to input index width-1-v.
	inputName := make([]string, width)
	for i := 0; i < numPIs; i++ {
		inputName[i] = fmt.Sprintf("x%d", i)
	}
	for i := 0; i < stateBits; i++ {
		inputName[numPIs+i] = fmt.Sprintf("s%d", i)
	}
	for _, n := range inputName {
		b.Input(n)
	}

	// Shared inverters, created on demand.
	haveInv := make(map[int]bool)
	invName := func(idx int) string { return inputName[idx] + "_n" }
	literal := func(idx int, positive bool) string {
		if positive {
			return inputName[idx]
		}
		if !haveInv[idx] {
			b.Gate(circuit.Not, invName(idx), inputName[idx])
			haveInv[idx] = true
		}
		return invName(idx)
	}

	funcName := func(f int) string {
		if f < numPOs {
			return fmt.Sprintf("y%d", f)
		}
		return fmt.Sprintf("ns%d", f-numPOs)
	}

	// Shared product terms: one AND gate per distinct cube.
	termGate := make(map[Cube]string)
	termCount := 0
	termFor := func(cube Cube) string {
		if tn, ok := termGate[cube]; ok {
			return tn
		}
		var lits []string
		for v := width - 1; v >= 0; v-- {
			if cube.Care&(1<<uint(v)) == 0 {
				continue
			}
			idx := width - 1 - v
			lits = append(lits, literal(idx, cube.Val&(1<<uint(v)) != 0))
		}
		var tn string
		switch len(lits) {
		case 0:
			tn = "__one__" // tautological cube; handled by the caller
		case 1:
			tn = lits[0] // single literal: the signal itself
		default:
			tn = fmt.Sprintf("t%d", termCount)
			termCount++
			b.Gate(circuit.And, tn, lits...)
		}
		termGate[cube] = tn
		return tn
	}

	// Pass 1: materialize terms; remember per-function term signal names.
	termsOf := make([][]string, len(covers))
	haveConst0 := false
	for f, cv := range covers {
		for _, cube := range cv {
			tn := termFor(cube)
			if tn == "__one__" {
				termsOf[f] = []string{"__one__"}
				break
			}
			termsOf[f] = append(termsOf[f], tn)
		}
	}

	haveConst1 := false
	// Pass 2: OR the terms of each function and mark outputs. Reduce left
	// no duplicate cubes, and distinct cubes map to distinct term signals.
	for f, ts := range termsOf {
		fn := funcName(f)
		switch {
		case len(ts) == 0:
			if !haveConst0 {
				b.Const("__zero__", false)
				haveConst0 = true
			}
			b.Gate(circuit.Buf, fn, "__zero__")
		case len(ts) == 1 && ts[0] == "__one__":
			if !haveConst1 {
				b.Const("__one__", true)
				haveConst1 = true
			}
			b.Gate(circuit.Buf, fn, "__one__")
		case len(ts) == 1:
			b.Gate(circuit.Buf, fn, ts[0])
		default:
			b.Gate(circuit.Or, fn, ts...)
		}
		b.Output(fn)
	}
	return b.Build()
}
