package engine

import "fmt"

// Exec is a word-block execution context: a register file of blockWords
// 64-bit words per register, evaluating the program over a contiguous slice
// of the exhaustive input space U. Word w of every register depends only on
// word w of the input registers, so disjoint blocks are independent and a
// set of Execs can stream U in parallel with byte-identical results.
//
// An Exec is reused across blocks by one goroutine; it is not safe for
// concurrent use.
type Exec struct {
	p    *Program
	cap  int // allocated words per register
	n    int // words of the current block
	lo   int // global word offset of the current block
	regs []uint64
}

// NewExec returns an execution context able to evaluate blocks of up to
// blockWords words (64·blockWords vectors).
func NewExec(p *Program, blockWords int) *Exec {
	return &Exec{p: p, cap: blockWords, regs: make([]uint64, p.NumRegs*blockWords)}
}

// Eval evaluates the program over the universe words [lo, hi): it fills the
// input registers with the vector-index bit patterns of that range and runs
// every instruction. hi−lo must not exceed the context's block capacity.
func (x *Exec) Eval(lo, hi int) {
	if hi-lo > x.cap {
		panic(fmt.Sprintf("engine: block [%d,%d) exceeds capacity %d words", lo, hi, x.cap))
	}
	x.lo, x.n = lo, hi-lo
	m := x.p.Circuit.NumInputs()
	for i, id := range x.p.Circuit.Inputs {
		dst := x.Node(id)
		// Input i (MSB-first) has value (v >> shift) & 1 at vector v. Within
		// a 64-bit word, inputs with shift ≥ 6 are constant; below that they
		// follow a fixed alternating pattern.
		shift := uint(m - 1 - i)
		if shift >= 6 {
			for w := range dst {
				if (uint64(lo+w)>>(shift-6))&1 == 1 {
					dst[w] = ^uint64(0)
				} else {
					dst[w] = 0
				}
			}
		} else {
			pat := alternating(shift)
			for w := range dst {
				dst[w] = pat
			}
		}
	}
	for _, ins := range x.p.Instrs {
		dst := x.Node(int(ins.Dst))
		switch ins.Op {
		case OpConst0:
			fillWords(dst, 0)
		case OpConst1:
			fillWords(dst, ^uint64(0))
		case OpCopy:
			copy(dst, x.Node(int(ins.A)))
		case OpNot:
			notWords(dst, x.Node(int(ins.A)))
		case OpAnd:
			andWords(dst, x.Node(int(ins.A)), x.Node(int(ins.B)))
		case OpNand:
			nandWords(dst, x.Node(int(ins.A)), x.Node(int(ins.B)))
		case OpOr:
			orWords(dst, x.Node(int(ins.A)), x.Node(int(ins.B)))
		case OpNor:
			norWords(dst, x.Node(int(ins.A)), x.Node(int(ins.B)))
		case OpXor:
			xorWords(dst, x.Node(int(ins.A)), x.Node(int(ins.B)))
		case OpXnor:
			xnorWords(dst, x.Node(int(ins.A)), x.Node(int(ins.B)))
		default:
			panic(fmt.Sprintf("engine: unknown op %v", ins.Op))
		}
	}
}

// Node returns the current block's value words of a node, which register
// id holds.
func (x *Exec) Node(id int) []uint64 {
	base := id * x.cap
	return x.regs[base : base+x.n]
}

// alternating returns the 64-bit pattern of bit position `shift` of the
// vector index: e.g. shift 0 → 0xAAAA...: bit v = (v >> 0) & 1.
func alternating(shift uint) uint64 {
	var pat uint64
	for v := uint(0); v < 64; v++ {
		if (v>>shift)&1 == 1 {
			pat |= 1 << v
		}
	}
	return pat
}

// ExecTV runs the instruction chains of the listed nodes (a topological
// sub-order) in dual-rail Kleene encoding: bit j of p1[r]/p0[r] says
// pattern j's value in register r can be 1/0. Definite 1 = (1,0), definite
// 0 = (0,1), X = (1,1). The rails of input registers must be set by the
// caller.
func (p *Program) ExecTV(ids []int, p1, p0 []uint64) {
	for _, id := range ids {
		r := p.nodeInstr[id]
		for _, ins := range p.Instrs[r[0]:r[1]] {
			d := ins.Dst
			a1, a0 := p1[ins.A], p0[ins.A]
			b1, b0 := p1[ins.B], p0[ins.B]
			switch ins.Op {
			case OpConst0:
				p1[d], p0[d] = 0, ^uint64(0)
			case OpConst1:
				p1[d], p0[d] = ^uint64(0), 0
			case OpCopy:
				p1[d], p0[d] = a1, a0
			case OpNot:
				p1[d], p0[d] = a0, a1
			case OpAnd:
				p1[d], p0[d] = a1&b1, a0|b0
			case OpNand:
				p1[d], p0[d] = a0|b0, a1&b1
			case OpOr:
				p1[d], p0[d] = a1|b1, a0&b0
			case OpNor:
				p1[d], p0[d] = a0&b0, a1|b1
			case OpXor:
				p1[d], p0[d] = (a1&b0)|(a0&b1), (a1&b1)|(a0&b0)
			case OpXnor:
				p1[d], p0[d] = (a1&b1)|(a0&b0), (a1&b0)|(a0&b1)
			default:
				panic(fmt.Sprintf("engine: unknown op %v", ins.Op))
			}
		}
	}
}
