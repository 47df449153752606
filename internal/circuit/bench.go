package circuit

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The ISCAS-85/89 .bench netlist format accepted by ParseBench:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G22)
//	G10 = NAND(G1, G3)
//	G11 = NOT(G10)
//	G12 = BUFF(G11)
//	G13 = DFF(G12)
//
// Statement order is free (a gate may reference signals defined later);
// keywords and gate names are case-insensitive. Recognized gates: AND,
// NAND, OR, NOR, XOR, XNOR, NOT (INV), BUFF (BUF), DFF.
//
// Sequential circuits (ISCAS-89) are stripped to their combinational
// logic, the standard full-scan view the paper's exhaustive analysis
// needs: each DFF's output signal becomes a pseudo primary input
// (appended after the declared inputs, in DFF declaration order) and each
// DFF's data signal becomes a pseudo primary output (appended after the
// declared outputs, in the same order).

// benchStmt is one `out = GATE(fanins)` statement before ordering.
type benchStmt struct {
	line   int
	out    string
	gate   string
	fanins []string
}

// ParseBench reads a circuit in the ISCAS .bench format. The name is the
// circuit name to use (.bench files do not carry one; pass e.g. the file
// base name).
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024) // grows on demand; lines up to 1 MiB

	var inputs, outputs []string
	var dffs []benchStmt
	stmts := make(map[string]benchStmt)
	var order []string // gate definition order, for deterministic emission
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if sig, ok, err := benchDecl(line, "INPUT"); err != nil {
			return nil, fmt.Errorf("bench %s line %d: %v", name, lineNo, err)
		} else if ok {
			inputs = append(inputs, sig)
			continue
		}
		if sig, ok, err := benchDecl(line, "OUTPUT"); err != nil {
			return nil, fmt.Errorf("bench %s line %d: %v", name, lineNo, err)
		} else if ok {
			outputs = append(outputs, sig)
			continue
		}
		st, err := parseBenchGate(line, lineNo)
		if err != nil {
			return nil, fmt.Errorf("bench %s line %d: %v", name, lineNo, err)
		}
		if st.gate == "DFF" {
			dffs = append(dffs, st)
			continue
		}
		if prev, dup := stmts[st.out]; dup {
			return nil, fmt.Errorf("bench %s line %d: signal %q already defined at line %d",
				name, lineNo, st.out, prev.line)
		}
		stmts[st.out] = st
		order = append(order, st.out)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(inputs) == 0 && len(dffs) == 0 {
		return nil, fmt.Errorf("bench %s: no INPUT statements", name)
	}
	return buildBench(name, inputs, outputs, dffs, stmts, order)
}

// ParseBenchString is ParseBench over a string.
func ParseBenchString(name, src string) (*Circuit, error) {
	return ParseBench(name, strings.NewReader(src))
}

// benchDecl matches `KEYWORD(signal)`.
func benchDecl(line, keyword string) (sig string, ok bool, err error) {
	if len(line) < len(keyword) || !strings.EqualFold(line[:len(keyword)], keyword) {
		return "", false, nil
	}
	rest := strings.TrimSpace(line[len(keyword):])
	if !strings.HasPrefix(rest, "(") {
		return "", false, nil
	}
	if !strings.HasSuffix(rest, ")") {
		return "", false, fmt.Errorf("malformed %s statement %q", keyword, line)
	}
	sig = strings.TrimSpace(rest[1 : len(rest)-1])
	if sig == "" || strings.ContainsAny(sig, " \t,()") {
		return "", false, fmt.Errorf("bad signal name in %s statement %q", keyword, line)
	}
	return sig, true, nil
}

// parseBenchGate matches `out = GATE(in1, in2, ...)`.
func parseBenchGate(line string, lineNo int) (benchStmt, error) {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return benchStmt{}, fmt.Errorf("unrecognized statement %q", line)
	}
	out := strings.TrimSpace(line[:eq])
	if out == "" || strings.ContainsAny(out, " \t,()") {
		return benchStmt{}, fmt.Errorf("bad signal name %q", out)
	}
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return benchStmt{}, fmt.Errorf("malformed gate statement %q", line)
	}
	gate := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	var fanins []string
	for _, f := range strings.Split(rhs[open+1:len(rhs)-1], ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return benchStmt{}, fmt.Errorf("empty fanin in %q", line)
		}
		fanins = append(fanins, f)
	}
	if len(fanins) == 0 {
		return benchStmt{}, fmt.Errorf("gate %q has no fanins", out)
	}
	switch gate {
	case "AND", "NAND", "OR", "NOR", "XOR", "XNOR":
	case "NOT", "INV":
		gate = "NOT"
		if len(fanins) != 1 {
			return benchStmt{}, fmt.Errorf("gate %q: NOT takes one fanin, got %d", out, len(fanins))
		}
	case "BUF", "BUFF":
		gate = "BUFF"
		if len(fanins) != 1 {
			return benchStmt{}, fmt.Errorf("gate %q: BUFF takes one fanin, got %d", out, len(fanins))
		}
	case "DFF":
		if len(fanins) != 1 {
			return benchStmt{}, fmt.Errorf("gate %q: DFF takes one fanin, got %d", out, len(fanins))
		}
	default:
		return benchStmt{}, fmt.Errorf("unknown gate %q", gate)
	}
	return benchStmt{line: lineNo, out: out, gate: gate, fanins: fanins}, nil
}

// benchKind maps a .bench gate mnemonic (already normalized) and its fanin
// count onto a circuit Kind. Degenerate single-fanin forms of the
// multi-input gates, which some .bench writers emit, collapse to their
// one-input equivalent.
func benchKind(gate string, fanins int) (Kind, error) {
	if fanins == 1 {
		switch gate {
		case "AND", "OR", "XOR", "BUFF":
			return Buf, nil
		case "NAND", "NOR", "XNOR", "NOT":
			return Not, nil
		}
	}
	switch gate {
	case "AND":
		return And, nil
	case "NAND":
		return Nand, nil
	case "OR":
		return Or, nil
	case "NOR":
		return Nor, nil
	case "XOR":
		return Xor, nil
	case "XNOR":
		return Xnor, nil
	case "NOT":
		return Not, nil
	case "BUFF":
		return Buf, nil
	}
	return 0, fmt.Errorf("unknown gate %q", gate)
}

// buildBench assembles the parsed statements into a Circuit: it resolves
// the DFF stripping, orders gate emission topologically (the format allows
// forward references), and drives the Builder.
func buildBench(name string, inputs, outputs []string, dffs []benchStmt, stmts map[string]benchStmt, order []string) (*Circuit, error) {
	declared := make(map[string]int, len(inputs))
	for _, in := range inputs {
		if _, dup := declared[in]; dup {
			return nil, fmt.Errorf("bench %s: input %q declared twice", name, in)
		}
		declared[in] = 1
		if st, dup := stmts[in]; dup {
			return nil, fmt.Errorf("bench %s line %d: signal %q is both an INPUT and a gate output", name, st.line, in)
		}
	}
	// DFF outputs become pseudo primary inputs.
	allInputs := append([]string(nil), inputs...)
	for _, d := range dffs {
		if _, dup := declared[d.out]; dup {
			return nil, fmt.Errorf("bench %s line %d: DFF output %q collides with an input", name, d.line, d.out)
		}
		if st, dup := stmts[d.out]; dup {
			return nil, fmt.Errorf("bench %s line %d: signal %q is both a DFF and a gate output", name, st.line, d.out)
		}
		declared[d.out] = 1
		allInputs = append(allInputs, d.out)
	}

	exists := func(sig string) bool {
		if _, ok := declared[sig]; ok {
			return true
		}
		_, ok := stmts[sig]
		return ok
	}
	for _, st := range stmts {
		for _, f := range st.fanins {
			if !exists(f) {
				return nil, fmt.Errorf("bench %s line %d: gate %q uses undefined signal %q", name, st.line, st.out, f)
			}
		}
	}
	for _, d := range dffs {
		if !exists(d.fanins[0]) {
			return nil, fmt.Errorf("bench %s line %d: DFF %q uses undefined signal %q", name, d.line, d.out, d.fanins[0])
		}
	}
	declaredOut := make(map[string]bool, len(outputs))
	for _, o := range outputs {
		if !exists(o) {
			return nil, fmt.Errorf("bench %s: OUTPUT(%s) is never defined", name, o)
		}
		if declaredOut[o] {
			return nil, fmt.Errorf("bench %s: OUTPUT(%s) declared twice", name, o)
		}
		declaredOut[o] = true
	}

	b := NewBuilder(name)
	for _, in := range allInputs {
		b.Input(in)
	}

	// Depth-first emission in definition order: the format allows a gate to
	// reference signals defined later, while the Builder needs drivers
	// declared first. The visiting mark doubles as combinational-loop
	// detection (DFF stripping must have broken every cycle).
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(stmts))
	var emit func(sig string) error
	emit = func(sig string) error {
		if _, isIn := declared[sig]; isIn {
			return nil
		}
		st := stmts[sig]
		switch state[sig] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("bench %s line %d: combinational loop through %q", name, st.line, sig)
		}
		state[sig] = visiting
		fanins := st.fanins
		if dedup := dedupIdempotent(st.gate, fanins); dedup != nil {
			fanins = dedup
		} else if hasDup(fanins) {
			return fmt.Errorf("bench %s line %d: gate %q lists a fanin twice", name, st.line, st.out)
		}
		for _, f := range fanins {
			if err := emit(f); err != nil {
				return err
			}
		}
		kind, err := benchKind(st.gate, len(fanins))
		if err != nil {
			return fmt.Errorf("bench %s line %d: %v", name, st.line, err)
		}
		b.Gate(kind, st.out, fanins...)
		state[sig] = done
		return nil
	}
	for _, sig := range order {
		if err := emit(sig); err != nil {
			return nil, err
		}
	}
	for _, d := range dffs {
		if err := emit(d.fanins[0]); err != nil {
			return nil, err
		}
	}

	for _, o := range outputs {
		b.Output(o)
	}
	// DFF data signals become pseudo primary outputs (next-state logic). A
	// data signal that is already a declared output (legal in ISCAS-89) is
	// observed once, not twice; several DFFs sharing one data signal
	// likewise add a single observation point.
	for _, d := range dffs {
		if ns := d.fanins[0]; !declaredOut[ns] {
			declaredOut[ns] = true
			b.Output(ns)
		}
	}
	if len(outputs) == 0 && len(dffs) == 0 {
		return nil, fmt.Errorf("bench %s: no OUTPUT statements", name)
	}
	return b.Build()
}

// dedupIdempotent removes repeated fanins for gates where repetition is
// logically idempotent (AND/NAND/OR/NOR); it returns nil for gates where a
// repeated fanin changes the function (XOR/XNOR), leaving the caller to
// reject it.
func dedupIdempotent(gate string, fanins []string) []string {
	switch gate {
	case "AND", "NAND", "OR", "NOR":
	default:
		return nil
	}
	if !hasDup(fanins) {
		return fanins
	}
	seen := make(map[string]bool, len(fanins))
	out := make([]string, 0, len(fanins))
	for _, f := range fanins {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

func hasDup(fanins []string) bool {
	seen := make(map[string]bool, len(fanins))
	for _, f := range fanins {
		if seen[f] {
			return true
		}
		seen[f] = true
	}
	return false
}
