package sim

// Dual-rail bit-parallel 3-valued simulation: up to 64 partial patterns are
// simulated at once through the compiled program's dual-rail interpreter
// (engine.ExecTV). Each register carries two words (p1, p0); bit j of
// p1/p0 says pattern j's value can be 1/0. Definite 1 = (1,0), definite
// 0 = (0,1), X = (1,1). The Kleene operators become word operations:
//
//	NOT: swap     AND: p1 = a1&b1, p0 = a0|b0     OR: p1 = a1|b1, p0 = a0&b0
//
// Definition 2's checker burns nearly all its time deciding whether the
// common-bits test t_ij detects a fault, for many pairs against the same
// fault; this batching answers 64 of those per circuit pass.

// PairScratch is DetectsPairs' register file: the good and faulty
// machines' dual rails for every node. It holds no result state — every
// register a call reads was written earlier in that call — so one
// PairScratch serves any number of calls, on any cone of any circuit, one
// call at a time.
type PairScratch struct {
	g1, g0, b1, b0 []uint64
}

func (s *PairScratch) reserve(numRegs int) {
	if cap(s.g1) < numRegs {
		s.g1 = make([]uint64, numRegs)
		s.g0 = make([]uint64, numRegs)
		s.b1 = make([]uint64, numRegs)
		s.b0 = make([]uint64, numRegs)
	}
	s.g1, s.g0 = s.g1[:numRegs], s.g0[:numRegs]
	s.b1, s.b0 = s.b1[:numRegs], s.b0[:numRegs]
}

// DetectsPairs reports in bit j of its result whether the paper's
// common-bits test t_{v,ds[j]} — specified where the fully specified
// vectors v and ds[j] agree, X elsewhere — detects the cone's fault (site
// stuck at stuckVal) under 3-valued simulation. All pairs, at most 64, go
// through one staged pass: the good machine on the site's fanin cone
// first, and only if some lane definitely excites the site, the rest of
// the good machine and the faulty pass over the fanout cone (in Kleene
// logic the faulty machine refines the good one wherever the site's good
// value is X or equals the stuck value, so no definite output can change).
// It allocates nothing once s has grown to the circuit.
func (fc *FaultCone) DetectsPairs(v uint64, ds []int, stuckVal bool, s *PairScratch) uint64 {
	k := len(ds)
	if k > 64 {
		panic("sim: DetectsPairs takes at most 64 pairs")
	}
	if k == 0 || len(fc.outputs) == 0 {
		return 0
	}
	lanes := ^uint64(0) >> uint(64-k)
	c := fc.c
	prog := fc.prog
	s.reserve(prog.NumRegs) // register r holds node r (CompileAll)
	g1, g0 := s.g1, s.g0

	// Input i's rails straight from the vector bits (MSB-first, as
	// circuit.VectorBit): with a = bit of v and b = bit of ds[j], lane j
	// gets p1 = a|b and p0 = ¬a|¬b — definite where they agree, X where
	// they differ.
	m := len(c.Inputs)
	for i, id := range c.Inputs {
		shift := uint(m - 1 - i)
		var b uint64
		for j, d := range ds {
			b |= (uint64(d) >> shift & 1) << uint(j)
		}
		if v>>shift&1 == 1 {
			g1[id], g0[id] = lanes, lanes&^b
		} else {
			g1[id], g0[id] = b, lanes
		}
	}

	prog.ExecTV(fc.tfiOrder, g1, g0)
	var excited uint64
	if stuckVal {
		excited = g0[fc.site] &^ g1[fc.site] // good site definitely 0, fault s-a-1
	} else {
		excited = g1[fc.site] &^ g0[fc.site]
	}
	if excited&lanes == 0 {
		return 0
	}

	prog.ExecTV(fc.rest, g1, g0)
	b1, b0 := s.b1, s.b0
	copy(b1, g1)
	copy(b0, g0)
	if stuckVal {
		b1[fc.site], b0[fc.site] = ^uint64(0), 0
	} else {
		b1[fc.site], b0[fc.site] = 0, ^uint64(0)
	}
	prog.ExecTV(fc.order, b1, b0)

	var detect uint64
	for _, oi := range fc.outputs {
		o := c.Outputs[oi]
		goodDef1 := g1[o] &^ g0[o]
		goodDef0 := g0[o] &^ g1[o]
		badDef1 := b1[o] &^ b0[o]
		badDef0 := b0[o] &^ b1[o]
		detect |= (goodDef1 & badDef0) | (goodDef0 & badDef1)
	}
	return detect & excited & lanes
}
