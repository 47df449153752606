// Package engine compiles gate-level circuits into flat, levelized
// instruction programs and interprets them at two widths.
//
// A Program is a straight-line sequence of register-to-register
// instructions in level order, with register r holding node r: multi-input
// gates are decomposed into binary accumulator chains that write through
// their own node's register, so every node's chain is one contiguous
// instruction range. The same program runs at two widths:
//
//   - word blocks (width 64·W): one []uint64 block per register, streaming
//     the exhaustive input space U in cache-sized chunks instead of
//     materializing per-node bitsets over all of U;
//   - dual-rail (width 64, 3-valued): two words per register carrying
//     Kleene (p1, p0) rails, for batched partial-vector fault simulation.
//
// A ConeCompiler additionally lowers the fanout cone of a line into a
// two-bank program (side inputs read from a Program's block, faulty values
// from a compact cone-local bank), which is the inner kernel of streaming
// fault analysis: flip a line, replay only its cone, compare the reachable
// outputs. A double stuck-at fault replays the same cone against a block
// evaluated with the other site forced (Exec.EvalForced). Cone programs
// use the same instruction set as whole-circuit programs; only their
// operand addressing differs.
//
// The per-vector reference evaluator is circuit.EvalInto, which shares
// nothing with this package's lowering.
package engine

import (
	"fmt"

	"ndetect/internal/circuit"
)

// Op is an instruction opcode. Binary gates with more than two inputs are
// decomposed by the compiler into accumulator chains, so interpreters only
// ever see two-operand instructions.
type Op uint8

// The instruction set. OpConst* take no operands, OpCopy/OpNot take one
// (A), the rest take two (A, B).
const (
	OpConst0 Op = iota
	OpConst1
	OpCopy
	OpNot
	OpAnd
	OpNand
	OpOr
	OpNor
	OpXor
	OpXnor
)

var opNames = [...]string{
	"const0", "const1", "copy", "not", "and", "nand", "or", "nor", "xor", "xnor",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one instruction: Dst ← Op(A, B). Unary ops ignore B, consts
// ignore both. In cone programs (ConeCompiler) a negative operand ^r reads
// register r of the good-value bank; main programs never emit negative
// operands.
type Instr struct {
	Op   Op
	Dst  int32
	A, B int32
}

// Program is a compiled circuit: a flat instruction sequence in level order
// over NumRegs registers, register r holding node r.
type Program struct {
	Circuit *circuit.Circuit
	Instrs  []Instr
	NumRegs int

	// nodeInstr is the [start, end) instruction range of each node's chain,
	// which enables subset execution (ExecTV).
	nodeInstr [][2]int32
}

// chainOps returns the accumulator opcode and the final (possibly
// inverting) opcode for a gate kind.
func chainOps(k circuit.Kind) (chain, final Op) {
	switch k {
	case circuit.And:
		return OpAnd, OpAnd
	case circuit.Nand:
		return OpAnd, OpNand
	case circuit.Or:
		return OpOr, OpOr
	case circuit.Nor:
		return OpOr, OpNor
	case circuit.Xor:
		return OpXor, OpXor
	case circuit.Xnor:
		return OpXor, OpXnor
	}
	panic(fmt.Sprintf("engine: kind %v has no chain ops", k))
}

// emitNode appends the instruction chain computing node n into register
// dst, with fanin registers resolved through regOf. Multi-input gates
// accumulate into dst — NAND(a,b,c) compiles to dst←AND(a,b); dst←NAND(dst,c)
// — so chains need no temporaries.
func emitNode(n *circuit.Node, dst int32, regOf func(fanin int) int32, out *[]Instr) {
	switch n.Kind {
	case circuit.Input:
		// Filled by the interpreter before execution.
	case circuit.Const0:
		*out = append(*out, Instr{Op: OpConst0, Dst: dst})
	case circuit.Const1:
		*out = append(*out, Instr{Op: OpConst1, Dst: dst})
	case circuit.Buf, circuit.Branch:
		*out = append(*out, Instr{Op: OpCopy, Dst: dst, A: regOf(n.Fanin[0])})
	case circuit.Not:
		*out = append(*out, Instr{Op: OpNot, Dst: dst, A: regOf(n.Fanin[0])})
	default:
		chain, final := chainOps(n.Kind)
		op := chain
		if len(n.Fanin) == 2 {
			op = final
		}
		*out = append(*out, Instr{Op: op, Dst: dst, A: regOf(n.Fanin[0]), B: regOf(n.Fanin[1])})
		for i := 2; i < len(n.Fanin); i++ {
			op = chain
			if i == len(n.Fanin)-1 {
				op = final
			}
			*out = append(*out, Instr{Op: op, Dst: dst, A: dst, B: regOf(n.Fanin[i])})
		}
	}
}

// CompileAll lowers the whole circuit with every node pinned to its own
// register (register r holds node r): fault streaming reads arbitrary node
// values for activation and cone side inputs, and dual-rail subset
// execution replays any topological slice of nodes.
func CompileAll(c *circuit.Circuit) *Program {
	p := &Program{
		Circuit:   c,
		NumRegs:   c.NumNodes(),
		nodeInstr: make([][2]int32, c.NumNodes()),
	}
	for _, id := range c.LevelOrder() {
		start := int32(len(p.Instrs))
		emitNode(c.Node(id), int32(id), func(f int) int32 { return int32(f) }, &p.Instrs)
		p.nodeInstr[id] = [2]int32{start, int32(len(p.Instrs))}
	}
	return p
}
