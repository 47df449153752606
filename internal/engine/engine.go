// Package engine compiles gate-level circuits into flat, levelized
// instruction programs and interprets them at three widths.
//
// A Program is a straight-line sequence of register-to-register
// instructions over a dense scratch-register file: multi-input gates are
// decomposed into binary accumulator chains, and the register allocator
// retires a node's register after its last read (fanout-aware liveness from
// circuit.ConsumerCounts), so an output-directed program keeps far fewer
// registers live than the circuit has nodes. The same program runs at three
// widths:
//
//   - scalar (width 1): one bool per register, with optional forced-node
//     override — the per-vector reference evaluator;
//   - word blocks (width 64·W): one []uint64 block per register, streaming
//     the exhaustive input space U in cache-sized chunks instead of
//     materializing per-node bitsets over all of U;
//   - dual-rail (width 64, 3-valued): two words per register carrying
//     Kleene (p1, p0) rails, for batched partial-vector fault simulation.
//
// A ConeCompiler additionally lowers the fanout cone of a line into a
// two-bank program (good values read from a full Program's block, faulty
// values from a compact cone-local bank), which is the inner kernel of
// streaming fault analysis: flip a line, replay only its cone, compare the
// reachable outputs.
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
// (A), the rest take two (A, B). The compiler (emitNode) only produces the
// first ten; the opcodes below opXnor exist solely as targets of the
// peephole fusion pass (fuse.go) and are interpreted at all three widths.
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

	// Complemented-first-operand pairs: a NOT fused into its consumer.
	OpAndN // dst = ^a & b
	OpOrN  // dst = ^a | b

	// Accumulator forms: a chain step whose first operand is its own
	// destination (dst = dst OP b). A is kept equal to Dst so width-agnostic
	// interpreters may treat them as their plain binary counterparts; the
	// word interpreter uses dedicated read-modify-write kernels.
	OpAndAcc
	OpNandAcc
	OpOrAcc
	OpNorAcc
	OpXorAcc
	OpXnorAcc
)

var opNames = [...]string{
	"const0", "const1", "copy", "not", "and", "nand", "or", "nor", "xor", "xnor",
	"andn", "orn", "and.acc", "nand.acc", "or.acc", "nor.acc", "xor.acc", "xnor.acc",
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
// over NumRegs scratch registers.
type Program struct {
	Circuit *circuit.Circuit
	Instrs  []Instr
	NumRegs int
	// InputReg maps primary-input position to its register, -1 when the
	// input feeds nothing the program computes.
	InputReg []int32
	// OutputReg maps primary-output position to its register.
	OutputReg []int32
	// NodeReg maps node ID to the register holding its value after the
	// program runs, or -1 when the value was dead or its register reused.
	NodeReg []int32

	// nodeInstr is the [start, end) instruction range of each node's chain;
	// only recorded by CompileAll, where it enables subset execution
	// (ExecTV) and forced-node skips (EvalScalarForced).
	nodeInstr [][2]int32
	keepAll   bool
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
// register (register r holds node r). This is the analysis program: fault
// streaming reads arbitrary node values for activation and cone side
// inputs, scalar forced evaluation overrides any node, and dual-rail
// subset execution replays any topological slice of nodes.
func CompileAll(c *circuit.Circuit) *Program {
	p := &Program{
		Circuit:   c,
		NumRegs:   c.NumNodes(),
		NodeReg:   make([]int32, c.NumNodes()),
		nodeInstr: make([][2]int32, c.NumNodes()),
		keepAll:   true,
	}
	for id := range p.NodeReg {
		p.NodeReg[id] = int32(id)
	}
	for _, id := range c.LevelOrder() {
		start := int32(len(p.Instrs))
		emitNode(c.Node(id), int32(id), func(f int) int32 { return int32(f) }, &p.Instrs)
		p.nodeInstr[id] = [2]int32{start, int32(len(p.Instrs))}
	}
	p.InputReg = make([]int32, len(c.Inputs))
	for i, id := range c.Inputs {
		p.InputReg[i] = int32(id)
	}
	p.OutputReg = make([]int32, len(c.Outputs))
	for i, id := range c.Outputs {
		p.OutputReg[i] = int32(id)
	}
	return p
}

// Compile lowers the circuit into an output-directed program: only nodes
// that reach a primary output or a kept node are computed (dead logic is
// eliminated), and every other register is retired after its last read, so
// live registers stay far below the node count. keep lists node IDs whose
// values must survive to the end of the program (primary outputs always
// do); it may be nil.
func Compile(c *circuit.Circuit, keep []int) *Program {
	numNodes := c.NumNodes()

	// Mark the transitive fanin of outputs ∪ keep.
	needed := make([]bool, numNodes)
	pinned := make([]bool, numNodes)
	var stack []int
	mark := func(id int) {
		if !needed[id] {
			needed[id] = true
			stack = append(stack, id)
		}
	}
	for _, o := range c.Outputs {
		mark(o)
		pinned[o] = true
	}
	for _, k := range keep {
		mark(k)
		pinned[k] = true
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Node(id).Fanin {
			mark(f)
		}
	}

	// Remaining reads per node: the circuit's consumer counts (gate pins
	// plus output observations) minus the reads of eliminated consumers.
	// Output observations never decrement, but output nodes are pinned, so
	// only the pinned[] guard below — never a residual count — is what
	// keeps a register alive to the end of the program.
	counts := c.ConsumerCounts()
	for id, in := range needed {
		if !in {
			for _, f := range c.Node(id).Fanin {
				counts[f]--
			}
		}
	}

	p := &Program{Circuit: c, NodeReg: make([]int32, numNodes)}
	for id := range p.NodeReg {
		p.NodeReg[id] = -1
	}
	var free []int32
	next := int32(0)
	alloc := func() int32 {
		if n := len(free); n > 0 {
			r := free[n-1]
			free = free[:n-1]
			return r
		}
		r := next
		next++
		return r
	}

	reg := make([]int32, numNodes)
	atAlloc := make([]int32, numNodes)
	for id := range reg {
		reg[id] = -1
		atAlloc[id] = -1
	}
	for _, id := range c.LevelOrder() {
		if !needed[id] {
			continue
		}
		n := c.Node(id)
		dst := alloc()
		reg[id] = dst
		atAlloc[id] = dst
		emitNode(n, dst, func(f int) int32 { return reg[f] }, &p.Instrs)
		// Retire fanin registers whose reads are exhausted. This runs after
		// dst was drawn from the free list, so dst never aliases a fanin.
		for _, f := range n.Fanin {
			counts[f]--
			if counts[f] == 0 && !pinned[f] {
				free = append(free, reg[f])
				reg[f] = -1
			}
		}
	}
	p.NumRegs = int(next)
	for id, r := range reg {
		p.NodeReg[id] = r
	}
	// Input registers are recorded at allocation time: the interpreter
	// fills them before instruction 0, so liveness may hand an input's
	// register to a later dst (every such write lands after the input's
	// last read), but the fill slot itself must survive in InputReg. All
	// inputs sit at level 0 where nothing has been retired yet, so their
	// registers are pairwise distinct.
	p.InputReg = make([]int32, len(c.Inputs))
	for i, id := range c.Inputs {
		p.InputReg[i] = atAlloc[id] // -1 when the input feeds no needed logic
	}
	p.OutputReg = make([]int32, len(c.Outputs))
	for i, id := range c.Outputs {
		p.OutputReg[i] = reg[id]
	}
	// Peephole fusion: forward copies, fold NOTs into their neighbors,
	// convert accumulator steps to in-place opcodes, drop dead definitions.
	// Pinned registers (outputs ∪ keep) survive with their values intact;
	// CompileAll never fuses because it promises per-node instruction
	// ranges.
	liveOut := make([]int32, 0, len(p.OutputReg)+len(keep))
	liveOut = append(liveOut, p.OutputReg...)
	for _, k := range keep {
		liveOut = append(liveOut, p.NodeReg[k])
	}
	var fz fuser
	p.Instrs = fz.fuse(p.Instrs, p.NumRegs, liveOut, nil)
	return p
}
