package engine

// Peephole fusion over cone programs. The compiler (emitNode) produces one
// instruction per gate pin, which leaves dispatch-bound patterns on the hot
// path: Buf/Branch copies, NOT gates feeding a single consumer, and
// accumulator chains ending in an inverting final step followed by a NOT.
// fuse rewrites these in place — copy forwarding, folding a NOT into its
// consumer (AND+NOT → OpAndN, OR+NOT → OpOrN, XOR+NOT → XNOR, …), folding a
// NOT of an invertible definition into the complemented opcode, converting
// self-accumulating steps to OpXxxAcc — then removes dead definitions.
//
// Only cone programs (ConeCompiler) are fused, so ConeExec is the one
// interpreter of the fused opcodes. CompileAll programs never are: they
// pin node = register and promise per-node instruction ranges (nodeInstr)
// to ExecTV and EvalScalarForced, which fusion would break.
//
// Cone register files are not SSA — accumulator chains redefine their
// destination — so every forwarded operand carries a definition-count
// stamp and is only used while the stamp still matches. Negative operands
// (the good bank) are external and always valid.

const opInvalid Op = 0xff

// opReadsA / opReadsB report whether an opcode reads the A / B operand.
// Accumulator ops keep A == Dst and genuinely read it.
func opReadsA(op Op) bool { return op >= OpCopy }
func opReadsB(op Op) bool { return op >= OpAnd }

// complemented returns the opcode computing the complement of op over the
// same operands, and whether the operands must swap (only the asymmetric
// OpAndN/OpOrN pair: ^(^a&b) = a|^b = OrN(b,a)).
func complemented(op Op) (c Op, swap, ok bool) {
	switch op {
	case OpConst0:
		return OpConst1, false, true
	case OpConst1:
		return OpConst0, false, true
	case OpCopy:
		return OpNot, false, true
	case OpNot:
		return OpCopy, false, true
	case OpAnd:
		return OpNand, false, true
	case OpNand:
		return OpAnd, false, true
	case OpOr:
		return OpNor, false, true
	case OpNor:
		return OpOr, false, true
	case OpXor:
		return OpXnor, false, true
	case OpXnor:
		return OpXor, false, true
	case OpAndN:
		return OpOrN, true, true
	case OpOrN:
		return OpAndN, true, true
	}
	return opInvalid, false, false
}

// foldNotA returns the opcode for OP(^a, b) expressed over (a, b), with
// swap meaning the rewritten operands exchange places.
func foldNotA(op Op) (c Op, swap, ok bool) {
	switch op {
	case OpAnd:
		return OpAndN, false, true
	case OpNand: // ^(^a&b) = a|^b = OrN(b,a)
		return OpOrN, true, true
	case OpOr:
		return OpOrN, false, true
	case OpNor: // ^(^a|b) = a&^b = AndN(b,a)
		return OpAndN, true, true
	case OpXor:
		return OpXnor, false, true
	case OpXnor:
		return OpXor, false, true
	case OpAndN: // ^(^a)&b = a&b
		return OpAnd, false, true
	case OpOrN:
		return OpOr, false, true
	}
	return opInvalid, false, false
}

// foldNotB returns the opcode for OP(a, ^b) expressed over (a, b).
func foldNotB(op Op) (c Op, swap, ok bool) {
	switch op {
	case OpAnd: // a&^b = AndN(b,a)
		return OpAndN, true, true
	case OpNand: // ^(a&^b) = ^a|b = OrN(a,b)
		return OpOrN, false, true
	case OpOr:
		return OpOrN, true, true
	case OpNor: // ^(a|^b) = ^a&b = AndN(a,b)
		return OpAndN, false, true
	case OpXor:
		return OpXnor, false, true
	case OpXnor:
		return OpXor, false, true
	case OpAndN: // ^a&^b
		return OpNor, false, true
	case OpOrN: // ^a|^b
		return OpNand, false, true
	}
	return opInvalid, false, false
}

// foldNotBoth returns the opcode for OP(^a, ^b) expressed over (a, b).
func foldNotBoth(op Op) (c Op, swap, ok bool) {
	switch op {
	case OpAnd:
		return OpNor, false, true
	case OpNand:
		return OpOr, false, true
	case OpOr:
		return OpNand, false, true
	case OpNor:
		return OpAnd, false, true
	case OpXor:
		return OpXor, false, true
	case OpXnor:
		return OpXnor, false, true
	case OpAndN: // a&^b = AndN(b,a)
		return OpAndN, true, true
	case OpOrN:
		return OpOrN, true, true
	}
	return opInvalid, false, false
}

// accOf returns the accumulator form of a plain binary opcode.
func accOf(op Op) (Op, bool) {
	switch op {
	case OpAnd:
		return OpAndAcc, true
	case OpNand:
		return OpNandAcc, true
	case OpOr:
		return OpOrAcc, true
	case OpNor:
		return OpNorAcc, true
	case OpXor:
		return OpXorAcc, true
	case OpXnor:
		return OpXnorAcc, true
	}
	return opInvalid, false
}

func commutative(op Op) bool {
	switch op {
	case OpAnd, OpNand, OpOr, OpNor, OpXor, OpXnor:
		return true
	}
	return false
}

// fuser is reusable fusion scratch: one per compiler, so batch compilation
// of many cone programs allocates nothing per program once warm.
type fuser struct {
	defIdx   []int32 // per register: index of the live definition, -1 none
	defCount []int32 // per register: definitions seen so far
	stampA   []int32 // per instruction: defCount of A at definition time
	stampB   []int32
	uses     []int32 // per instruction: reads of this definition
	rdA      []int32 // per instruction: definition index its A read resolved to
	rdB      []int32
	keep     []bool
	live     []bool // per register: value must survive the program
	removed  bool
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func (fz *fuser) grow(numRegs, n int) {
	fz.defIdx = growInt32(fz.defIdx, numRegs)
	fz.defCount = growInt32(fz.defCount, numRegs)
	if cap(fz.live) < numRegs {
		fz.live = make([]bool, numRegs)
	}
	fz.live = fz.live[:numRegs]
	fz.stampA = growInt32(fz.stampA, n)
	fz.stampB = growInt32(fz.stampB, n)
	fz.uses = growInt32(fz.uses, n)
	fz.rdA = growInt32(fz.rdA, n)
	fz.rdB = growInt32(fz.rdB, n)
	if cap(fz.keep) < n {
		fz.keep = make([]bool, n)
	}
	fz.keep = fz.keep[:n]
}

// fuse rewrites instrs in place and returns the compacted slice. liveOut
// lists registers whose final values must survive (their last definitions
// are kept with Dst unchanged). segEnd is a non-decreasing list of
// instruction boundaries remapped in place as definitions are removed.
// The rewrite is deterministic: a pure function of the input program.
func (fz *fuser) fuse(instrs []Instr, numRegs int, liveOut []int32, segEnd []int32) []Instr {
	if len(instrs) == 0 {
		return instrs
	}
	fz.grow(numRegs, len(instrs))
	for _, r := range liveOut {
		fz.live[r] = true
	}
	// Two rewrite+DCE passes capture virtually every fold (pass one forwards
	// copies and folds NOTs, pass two folds patterns those rewrites exposed);
	// further iterations almost never change anything and would only pay
	// their full-scan cost, so the fixpoint is capped rather than confirmed.
	for iter := 0; iter < 2; iter++ {
		changed := fz.rewrite(instrs)
		instrs = fz.dce(instrs, segEnd)
		if !changed && !fz.removed {
			break
		}
	}
	for i := range instrs {
		ins := &instrs[i]
		if acc, ok := accOf(ins.Op); ok {
			if ins.A == ins.Dst {
				ins.Op = acc
			} else if ins.B == ins.Dst && commutative(ins.Op) {
				ins.A, ins.B = ins.B, ins.A
				ins.Op = acc
			}
		}
	}
	for _, r := range liveOut {
		fz.live[r] = false
	}
	return instrs
}

// validDef returns the index of register r's live definition if every
// register operand that definition read is still at the same definition
// count (so forwarding its operands preserves values), else -1.
func (fz *fuser) validDef(instrs []Instr, r int32) int32 {
	if r < 0 {
		return -1
	}
	j := fz.defIdx[r]
	if j < 0 {
		return -1
	}
	d := instrs[j]
	if opReadsA(d.Op) && d.A >= 0 && fz.defCount[d.A] != fz.stampA[j] {
		return -1
	}
	if opReadsB(d.Op) && d.B >= 0 && fz.defCount[d.B] != fz.stampB[j] {
		return -1
	}
	return j
}

// chaseDef forwards a read operand through still-valid copy definitions and
// returns the forwarded operand together with its live definition index
// (-1 when the operand has no still-valid definition), so callers inspect
// the definition without a second lookup.
func (fz *fuser) chaseDef(instrs []Instr, r int32) (int32, int32) {
	j := fz.validDef(instrs, r)
	for j >= 0 && instrs[j].Op == OpCopy {
		r = instrs[j].A
		j = fz.validDef(instrs, r)
	}
	return r, j
}

// rewrite is one forward pass of copy forwarding plus consumer- and
// producer-side NOT folding. It reports whether anything changed.
func (fz *fuser) rewrite(instrs []Instr) bool {
	for i := range fz.defIdx {
		fz.defIdx[i] = -1
		fz.defCount[i] = 0
	}
	changed := false
	for i := range instrs {
		ins := &instrs[i]
		ja, jb := int32(-1), int32(-1)
		if opReadsA(ins.Op) {
			a, j := fz.chaseDef(instrs, ins.A)
			ja = j
			if a != ins.A {
				ins.A = a
				changed = true
			}
		}
		if opReadsB(ins.Op) {
			b, j := fz.chaseDef(instrs, ins.B)
			jb = j
			if b != ins.B {
				ins.B = b
				changed = true
			}
		}
		switch {
		case ins.Op == OpCopy || ins.Op == OpNot:
			if ja >= 0 && instrs[ja].Op == OpNot {
				// COPY(^x) = NOT(x), NOT(^x) = COPY(x).
				if ins.Op == OpNot {
					ins.Op = OpCopy
				} else {
					ins.Op = OpNot
				}
				ins.A = instrs[ja].A
				changed = true
			} else if ins.Op == OpNot && ja >= 0 {
				// NOT of any invertible definition: recompute the definition
				// with the complemented opcode. If this was its only use the
				// definition dies in DCE; otherwise the instruction count is
				// unchanged.
				d := instrs[ja]
				if cop, swap, ok := complemented(d.Op); ok && d.Op != OpCopy {
					ins.Op, ins.A, ins.B = cop, d.A, d.B
					if swap {
						ins.A, ins.B = ins.B, ins.A
					}
					changed = true
				}
			}
		case opReadsB(ins.Op):
			okA := ja >= 0 && instrs[ja].Op == OpNot
			okB := jb >= 0 && instrs[jb].Op == OpNot
			var cop Op
			var swap, ok bool
			switch {
			case okA && okB:
				if cop, swap, ok = foldNotBoth(ins.Op); ok {
					ins.A, ins.B = instrs[ja].A, instrs[jb].A
				}
			case okA:
				if cop, swap, ok = foldNotA(ins.Op); ok {
					ins.A = instrs[ja].A
				}
			case okB:
				if cop, swap, ok = foldNotB(ins.Op); ok {
					ins.B = instrs[jb].A
				}
			}
			if ok {
				ins.Op = cop
				if swap {
					ins.A, ins.B = ins.B, ins.A
				}
				changed = true
			}
		}
		// Stamps are recorded before the destination's def count bumps, so a
		// self-reading definition (accumulator step) is never treated as
		// forwardable: its pre-redefinition operand value no longer exists.
		if opReadsA(ins.Op) && ins.A >= 0 {
			fz.stampA[i] = fz.defCount[ins.A]
		}
		if opReadsB(ins.Op) && ins.B >= 0 {
			fz.stampB[i] = fz.defCount[ins.B]
		}
		fz.defCount[ins.Dst]++
		fz.defIdx[ins.Dst] = int32(i)
	}
	return changed
}

// dce removes definitions with no remaining reads whose register is not
// live-out (or is redefined later), compacting instrs and remapping segEnd.
func (fz *fuser) dce(instrs []Instr, segEnd []int32) []Instr {
	n := len(instrs)
	for i := range fz.defIdx {
		fz.defIdx[i] = -1
	}
	uses, rdA, rdB := fz.uses[:n], fz.rdA[:n], fz.rdB[:n]
	for i, ins := range instrs {
		uses[i] = 0
		rdA[i], rdB[i] = -1, -1
		if opReadsA(ins.Op) && ins.A >= 0 {
			if j := fz.defIdx[ins.A]; j >= 0 {
				uses[j]++
				rdA[i] = j
			}
		}
		if opReadsB(ins.Op) && ins.B >= 0 {
			if j := fz.defIdx[ins.B]; j >= 0 {
				uses[j]++
				rdB[i] = j
			}
		}
		fz.defIdx[ins.Dst] = int32(i)
	}
	for r, live := range fz.live {
		if live {
			if j := fz.defIdx[r]; j >= 0 {
				uses[j]++
			}
		}
	}
	removed := 0
	keep := fz.keep[:n]
	for i := n - 1; i >= 0; i-- {
		keep[i] = uses[i] > 0
		if !keep[i] {
			removed++
			// Operand definitions sit strictly earlier, so the backward scan
			// sees the decrement before deciding their fate.
			if j := rdA[i]; j >= 0 {
				uses[j]--
			}
			if j := rdB[i]; j >= 0 {
				uses[j]--
			}
		}
	}
	fz.removed = removed > 0
	if removed == 0 {
		return instrs
	}
	out := instrs[:0]
	seg, kept := 0, int32(0)
	for i := range instrs {
		for seg < len(segEnd) && segEnd[seg] == int32(i) {
			segEnd[seg] = kept
			seg++
		}
		if keep[i] {
			out = append(out, instrs[i])
			kept++
		}
	}
	for ; seg < len(segEnd); seg++ {
		segEnd[seg] = kept
	}
	return out
}
