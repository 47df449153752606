package engine

import (
	"fmt"
	"slices"

	"ndetect/internal/circuit"
)

// ConeProgram is the compiled fanout cone of one line: the instructions
// that replay the circuit downstream of the line with its value flipped
// (PropInto) or held at a constant (PropPairInto), reading untouched side
// inputs from the bank of a Program block and faulty values from a compact
// cone-local bank. Register 0 of the faulty bank is the line itself;
// negative instruction operands ^r address bank register r, which holds
// node r.
//
// Streaming fault analysis runs one ConeProgram per fault line per block:
// the words where any reachable output disagrees with the good machine are
// exactly the line's flip-propagation mask for that block.
//
// Instructions are grouped into per-output segments: segment k (the range
// Instrs[SegEnd[k-1]:SegEnd[k]]) holds exactly the not-yet-emitted cone
// logic output k depends on, so executing Instrs[:SegEnd[k]] computes
// Outputs[:k+1]. Logic shared between outputs lands in the first segment
// that needs it and is executed once; cone nodes reaching no output are
// never emitted at all.
type ConeProgram struct {
	Site    int
	Instrs  []Instr
	NumRegs int
	// Outputs pairs, for every primary output reachable from the site, the
	// good-bank register with the faulty-bank register to compare.
	Outputs []ConeOut
	// SegEnd[k] is the instruction boundary after which Outputs[k] is
	// computed; len(SegEnd) == len(Outputs).
	SegEnd []int32

	// alwaysProp records a compile-time proof that the flip propagates at
	// every vector: some reachable output is connected to the site by a
	// chain of Buf/Branch/Not nodes only. Such a chain commutes with
	// complement, so the flipped site forces bad == ^good at that output at
	// every vector, making the propagation mask all-ones without replaying
	// anything. Only flip semantics (PropInto) support the argument: a
	// forced constant (PropPairInto) need not complement the site.
	alwaysProp bool
}

// AlwaysProp reports whether the flip provably propagates at every vector,
// so callers may substitute an all-ones mask for replaying the cone.
func (cp *ConeProgram) AlwaysProp() bool { return cp.alwaysProp }

// ConeOut is one observable output of a cone: Good is the output's node,
// addressing the program's bank, and Bad the cone-local register.
type ConeOut struct {
	Good, Bad int32
}

// ConeCompiler compiles cone programs against one analysis program with
// reusable, epoch-stamped scratch: compiling many cones in a batch touches
// no per-cone node-count allocations. A compiler is single-goroutine
// scratch; the resulting ConePrograms are immutable and freely shared.
type ConeCompiler struct {
	p      *Program
	epoch  int32
	inCone []int32 // stamp: node is in the current fanout cone
	done   []int32 // stamp: node is a site or already emitted
	odd    []int32 // stamp: bad value is the complement of good at every vector
	badReg []int32
	queue  []int
	seg    []uint64 // packed (level, id) sort keys of the current segment
	instrs []Instr
	outs   []ConeOut
	segEnd []int32

	// Chunked arenas backing the slices of emitted ConePrograms (see
	// arenaCopy).
	instrArena []Instr
	outArena   []ConeOut
	segArena   []int32
}

// NewConeCompiler returns a cone compiler for this program.
func (p *Program) NewConeCompiler() *ConeCompiler {
	n := p.Circuit.NumNodes()
	return &ConeCompiler{
		p:      p,
		inCone: make([]int32, n),
		done:   make([]int32, n),
		odd:    make([]int32, n),
		badReg: make([]int32, n),
	}
}

func (cc *ConeCompiler) regOf(f int) int32 {
	if cc.done[f] == cc.epoch {
		return cc.badReg[f]
	}
	return ^int32(f) // good bank
}

// Compile lowers the fanout cone of site. The result is a pure function
// of (program, site): scratch reuse and batch order never change the
// emitted instructions.
func (cc *ConeCompiler) Compile(site int) *ConeProgram {
	cc.epoch++
	ep := cc.epoch
	c := cc.p.Circuit

	q := append(cc.queue[:0], site)
	cc.inCone[site] = ep
	cc.badReg[site] = 0
	cc.done[site] = ep
	cc.odd[site] = ep
	for len(q) > 0 {
		id := q[len(q)-1]
		q = q[:len(q)-1]
		for _, f := range c.Node(id).Fanout {
			if cc.inCone[f] != ep {
				cc.inCone[f] = ep
				q = append(q, f)
			}
		}
	}

	instrs := cc.instrs[:0]
	outs := cc.outs[:0]
	segEnd := cc.segEnd[:0]
	next := int32(1)
	alwaysProp := false
	for _, o := range c.Outputs {
		if cc.inCone[o] != ep {
			continue
		}
		if cc.done[o] != ep {
			// Collect the un-emitted cone logic this output depends on and
			// emit it in (level, id) order — deterministic and topological,
			// independent of the collection order.
			seg := cc.seg[:0]
			q = append(q[:0], o)
			cc.done[o] = ep
			for len(q) > 0 {
				id := q[len(q)-1]
				q = q[:len(q)-1]
				seg = append(seg, uint64(c.Node(id).Level)<<32|uint64(uint32(id)))
				for _, f := range c.Node(id).Fanin {
					if cc.inCone[f] == ep && cc.done[f] != ep {
						cc.done[f] = ep
						q = append(q, f)
					}
				}
			}
			slices.Sort(seg) // packed keys sort by (level, id)
			for _, key := range seg {
				id := int(uint32(key))
				n := c.Node(id)
				dst := next
				next++
				cc.badReg[id] = dst
				emitNode(n, dst, cc.regOf, &instrs)
				switch n.Kind {
				case circuit.Buf, circuit.Branch, circuit.Not:
					if f := n.Fanin[0]; cc.odd[f] == ep {
						cc.odd[id] = ep
					}
				}
			}
			cc.seg = seg[:0]
		}
		outs = append(outs, ConeOut{Good: int32(o), Bad: cc.badReg[o]})
		segEnd = append(segEnd, int32(len(instrs)))
		if cc.odd[o] == ep {
			alwaysProp = true
		}
	}
	cc.queue = q[:0]

	cp := &ConeProgram{
		Site:       site,
		NumRegs:    int(next),
		alwaysProp: alwaysProp,
	}
	if len(instrs) > 0 {
		cp.Instrs = arenaCopy(&cc.instrArena, instrs)
	}
	if len(outs) > 0 {
		cp.Outputs = arenaCopy(&cc.outArena, outs)
		cp.SegEnd = arenaCopy(&cc.segArena, segEnd)
	}
	cc.instrs = instrs[:0]
	cc.outs = outs[:0]
	cc.segEnd = segEnd[:0]
	return cp
}

// arenaCopy copies src into chunked arena storage, returning a right-capped
// slice. Compiling one cone program emits three small immutable slices; a
// batch of hundreds of cones would hand the garbage collector thousands of
// tiny objects to track, so each compiler carves them out of shared chunks
// with the same lifetime instead.
func arenaCopy[T any](arena *[]T, src []T) []T {
	if len(*arena) < len(src) {
		*arena = make([]T, max(arenaChunk, len(src)))
	}
	dst := (*arena)[:len(src):len(src)]
	*arena = (*arena)[len(src):]
	copy(dst, src)
	return dst
}

// arenaChunk sizes compiler arena chunks in elements; cone segments are
// small, so one chunk serves many compiled programs.
const arenaChunk = 1024

// ConeExec is a reusable faulty-bank register file for cone programs. One
// ConeExec serves any number of cone programs of any size (the backing
// grows on demand); like Exec it is single-goroutine scratch.
type ConeExec struct {
	cap  int // words per register
	n    int // words of the current block
	regs []uint64
}

// NewConeExec returns a cone execution context for blocks of up to
// blockWords words.
func NewConeExec(blockWords int) *ConeExec {
	return &ConeExec{cap: blockWords}
}

// Reserve pre-sizes the faulty bank for cones of up to numRegs registers.
// Replay loops that visit many cones in ascending-size order call it once
// with the maximum, so bind never regrows the bank one size step at a time.
func (cx *ConeExec) Reserve(numRegs int) {
	if need := numRegs * cx.cap; len(cx.regs) < need {
		cx.regs = make([]uint64, need)
	}
}

// PropInto writes into dst (length ≥ block words) the block's slice of the
// site's flip-propagation mask: the words where any reachable output
// disagrees with the good machine under the flipped site. It overwrites dst
// (no pre-clearing needed) and replays the cone one output segment at a
// time, stopping as soon as the mask saturates to all-ones — further
// outputs can only OR into saturated words, so skipping them is exactly
// identity-preserving, and the cut depends only on register data, never on
// worker schedule.
func (cx *ConeExec) PropInto(cp *ConeProgram, x *Exec, dst []uint64) {
	cx.bind(cp, x)
	dst = dst[:cx.n]
	if len(cp.Outputs) == 0 {
		fillWords(dst, 0)
		return
	}
	notWords(cx.reg(0), x.Node(cp.Site))
	cx.propSegments(cp, x, x, dst, true)
}

// PropPairInto writes into dst the block's detection mask of a double
// stuck-at fault: base holds good's block with some node b forced
// (Exec.EvalForced), baseOuts are the Outputs of b's own cone program,
// and cp.Site is held at v on top of it. The cone replays against base's
// bank and its outputs are compared with good; every output of b's cone
// outside cp's keeps its base-forced value and adds good ⊕ base, and an
// output outside both cones equals good, since b does not reach it. The
// mask is exact when b lies outside the cone, which holds whenever
// b ≠ cp.Site and Level(b) ≤ Level(cp.Site): every cone node but the site
// has a higher level than the site. Activation is implicit in the output
// comparison, and the AlwaysProp proof does not apply.
func (cx *ConeExec) PropPairInto(cp *ConeProgram, v bool, baseOuts []ConeOut, base, good *Exec, dst []uint64) {
	cx.bind(cp, base)
	dst = dst[:cx.n]
	fillWords(dst, 0)
	sat := uint64(0)
	// Both cones' outputs are subsequences of the circuit's outputs, one
	// entry per position in order, so one walk over the positions matches
	// them.
	cone := cp.Outputs
	for _, o := range good.p.Circuit.Outputs {
		if len(baseOuts) == 0 {
			break
		}
		inBase := int(baseOuts[0].Good) == o
		if inBase {
			baseOuts = baseOuts[1:]
		}
		if len(cone) > 0 && int(cone[0].Good) == o {
			cone = cone[1:]
		} else if inBase {
			sat = orDiffWords(dst, good.Node(o), base.Node(o))
		}
	}
	if len(cp.Outputs) == 0 || sat == ^uint64(0) {
		return
	}
	fillWords(cx.reg(0), constWord(v))
	cx.propSegments(cp, base, good, dst, false)
}

// propSegments replays cp's segments against side's bank and folds each
// cone output's disagreement with ref into dst, overwriting dst at the
// first output when set is true and ORing into it otherwise.
func (cx *ConeExec) propSegments(cp *ConeProgram, side, ref *Exec, dst []uint64, set bool) {
	start := int32(0)
	last := len(cp.Outputs) - 1
	for k, co := range cp.Outputs {
		end := cp.SegEnd[k]
		cx.execInstrs(cp.Instrs[start:end], side)
		start = end
		g, b := ref.Node(int(co.Good)), cx.reg(co.Bad)
		var sat uint64
		if set && k == 0 {
			sat = setDiffWords(dst, g, b)
		} else {
			sat = orDiffWords(dst, g, b)
		}
		if sat == ^uint64(0) && k < last {
			return // saturated: drop the remaining segments
		}
	}
}

// bind sizes the faulty bank for cp over x's current block.
func (cx *ConeExec) bind(cp *ConeProgram, x *Exec) {
	if x.cap != cx.cap {
		panic(fmt.Sprintf("engine: cone block capacity %d != exec capacity %d", cx.cap, x.cap))
	}
	cx.n = x.n
	if need := cp.NumRegs * cx.cap; len(cx.regs) < need {
		cx.regs = make([]uint64, need)
	}
}

// execInstrs interprets cone instructions against the seeded site
// registers, resolving negative operands to x's good bank.
func (cx *ConeExec) execInstrs(instrs []Instr, x *Exec) {
	for _, ins := range instrs {
		dst := cx.reg(ins.Dst)
		switch ins.Op {
		case OpCopy:
			copy(dst, cx.operand(ins.A, x))
		case OpNot:
			notWords(dst, cx.operand(ins.A, x))
		case OpAnd:
			andWords(dst, cx.operand(ins.A, x), cx.operand(ins.B, x))
		case OpNand:
			nandWords(dst, cx.operand(ins.A, x), cx.operand(ins.B, x))
		case OpOr:
			orWords(dst, cx.operand(ins.A, x), cx.operand(ins.B, x))
		case OpNor:
			norWords(dst, cx.operand(ins.A, x), cx.operand(ins.B, x))
		case OpXor:
			xorWords(dst, cx.operand(ins.A, x), cx.operand(ins.B, x))
		case OpXnor:
			xnorWords(dst, cx.operand(ins.A, x), cx.operand(ins.B, x))
		default:
			// Cones never contain inputs or constants: both are fanin-free.
			panic(fmt.Sprintf("engine: op %v in cone program", ins.Op))
		}
	}
}

func (cx *ConeExec) reg(r int32) []uint64 {
	base := int(r) * cx.cap
	return cx.regs[base : base+cx.n]
}

func (cx *ConeExec) operand(r int32, x *Exec) []uint64 {
	if r < 0 {
		return x.Node(int(^r))
	}
	return cx.reg(r)
}
