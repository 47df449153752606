package engine

import (
	"fmt"
	"slices"

	"ndetect/internal/circuit"
)

// ConeProgram is the compiled fanout cone of one line: the instructions
// that replay the circuit downstream of the line with its value flipped,
// reading untouched side inputs from the good-value bank of a Program block
// and faulty values from a compact cone-local bank. Register 0 of the
// faulty bank is the flipped line itself; negative instruction operands ^r
// address good-bank register r, which holds node r.
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
	Site int
	// Sites lists every fault site of the cone in faulty-bank register
	// order: register i belongs to Sites[i]. Single-site cones have
	// Sites = [Site], and PropInto seeds register 0 with the site's
	// complement; PropForcedInto seeds every site register with a forced
	// constant.
	Sites   []int
	Instrs  []Instr
	NumRegs int
	// Outputs pairs, for every primary output reachable from the site, the
	// good-bank register with the faulty-bank register to compare.
	Outputs []ConeOut
	// SegEnd[k] is the instruction boundary after which Outputs[k] is
	// computed; len(SegEnd) == len(Outputs).
	SegEnd []int32

	// alwaysProp records a compile-time proof that the flip propagates at
	// every vector: some reachable output is connected to the single site
	// by a chain of Buf/Branch/Not nodes only. Such a chain commutes with
	// complement, so the flipped site forces bad == ^good at that output at
	// every vector, making the propagation mask all-ones without replaying
	// anything. Only single-site flip semantics (PropInto) support the
	// argument — forced constants (PropForcedInto) do not complement the
	// site.
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
	siteArena  []int
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

// Compile lowers the union fanout cone of sites. The result is a pure
// function of (program, sites): scratch reuse and batch order never change
// the emitted instructions.
func (cc *ConeCompiler) Compile(sites []int) *ConeProgram {
	cc.epoch++
	ep := cc.epoch
	c := cc.p.Circuit
	single := len(sites) == 1

	q := cc.queue[:0]
	for i, s := range sites {
		if cc.inCone[s] != ep {
			cc.inCone[s] = ep
			q = append(q, s)
		}
		cc.badReg[s] = int32(i)
		cc.done[s] = ep
		if single {
			cc.odd[s] = ep
		}
	}
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
	next := int32(len(sites))
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
				if single {
					switch n.Kind {
					case circuit.Buf, circuit.Branch, circuit.Not:
						if f := n.Fanin[0]; cc.odd[f] == ep {
							cc.odd[id] = ep
						}
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
		Site:       sites[0],
		Sites:      arenaCopy(&cc.siteArena, sites),
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
// slice. Compiling one cone program emits four small immutable slices; a
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
// worker schedule. Single-site cones only.
func (cx *ConeExec) PropInto(cp *ConeProgram, x *Exec, dst []uint64) {
	if len(cp.Sites) != 1 {
		panic(fmt.Sprintf("engine: PropInto on a %d-site cone", len(cp.Sites)))
	}
	cx.bind(cp, x)
	dst = dst[:cx.n]
	if len(cp.Outputs) == 0 {
		fillWords(dst, 0)
		return
	}
	notWords(cx.reg(0), x.Node(cp.Site))
	cx.propSegments(cp, x, dst)
}

// PropForcedInto is PropInto for forced multi-site replay: it holds every
// site register at a constant across the block, vals[i] being the value
// forced onto cp.Sites[i], and overwrites dst with the detection mask of the
// multiple stuck-at fault {Sites[i] stuck at vals[i]}, with the same
// segmented early exit. Activation is implicit in the output comparison.
func (cx *ConeExec) PropForcedInto(cp *ConeProgram, x *Exec, vals []bool, dst []uint64) {
	if len(vals) != len(cp.Sites) {
		panic(fmt.Sprintf("engine: %d forced values for %d sites", len(vals), len(cp.Sites)))
	}
	cx.bind(cp, x)
	dst = dst[:cx.n]
	if len(cp.Outputs) == 0 {
		fillWords(dst, 0)
		return
	}
	for i, v := range vals {
		fill := uint64(0)
		if v {
			fill = ^uint64(0)
		}
		fillWords(cx.reg(int32(i)), fill)
	}
	cx.propSegments(cp, x, dst)
}

func (cx *ConeExec) propSegments(cp *ConeProgram, x *Exec, dst []uint64) {
	start := int32(0)
	last := len(cp.Outputs) - 1
	for k, co := range cp.Outputs {
		end := cp.SegEnd[k]
		cx.execInstrs(cp.Instrs[start:end], x)
		start = end
		g, b := x.Node(int(co.Good)), cx.reg(co.Bad)
		var sat uint64
		if k == 0 {
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
