package main

import (
	"fmt"
	"runtime"
	"time"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/report"
)

// corpus holds a workload's circuits, built once during set-up the way
// `ndetect -bench NAME` builds them, plus the time each synthesis took.
type corpus struct {
	circuits map[string]*circuit.Circuit
	synth    []time.Duration // one per synthesized FSM
}

func synthesizeCorpus(names []string) (*corpus, error) {
	cp := &corpus{circuits: map[string]*circuit.Circuit{}}
	for _, name := range names {
		if b, ok := bench.ByName(name); ok {
			t0 := time.Now()
			r, err := b.SynthesizeDefault()
			if err != nil {
				return nil, fmt.Errorf("synthesize %s: %w", name, err)
			}
			cp.synth = append(cp.synth, time.Since(t0))
			cp.circuits[name] = r.Circuit
			continue
		}
		c, err := circuit.EmbeddedBench(name)
		if err != nil {
			return nil, err
		}
		cp.circuits[name] = c
	}
	return cp, nil
}

// frontEndMs times the front-end layers on the workload's circuits:
// synthesis (from set-up), parsing of each circuit's rendered netlist,
// and canonical hashing. Compute requests pay none of these (their
// circuits are built in set-up); serve requests pay them on every submit.
func (cp *corpus) frontEndMs(names []string) map[string]float64 {
	var synth, parse, hash time.Duration
	for _, d := range cp.synth {
		synth += d
	}
	for _, name := range names {
		c := cp.circuits[name]
		text := c.WriteString()
		t0 := time.Now()
		if _, err := circuit.ParseString(text); err != nil {
			continue // unreachable: the text is the writer's own output
		}
		t1 := time.Now()
		circuit.Hash(c)
		parse += t1.Sub(t0)
		hash += time.Since(t1)
	}
	out := map[string]float64{}
	if len(cp.synth) > 0 {
		out["synth.synthesize_ms"] = ms(synth) / float64(len(cp.synth))
	}
	if len(names) > 0 {
		out["circuit.parse_ms"] = ms(parse) / float64(len(names))
		out["circuit.hash_ms"] = ms(hash) / float64(len(names))
	}
	return out
}

// warmUniverses is the average-warm workload's universe source: every
// universe is built during set-up and handed to each request through
// exp.UniverseSource, as the daemon's store tier or a sweep's memo does.
type warmUniverses map[string]*ndetect.CircuitUniverse

func (w warmUniverses) Universe(c *circuit.Circuit, m fault.Model, _ ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error) {
	u, ok := w[circuit.Hash(c)+"|"+m.ID()]
	if !ok {
		return nil, fmt.Errorf("no warm universe for %s under %s", c.Name, m.ID())
	}
	return u, nil
}

// computeBench runs a compute workload in-process: each request is
// exactly what `ndetect -json` does, exp.AnalyzeCircuit then Encode.
type computeBench struct {
	workload  string
	workers   int
	corpus    *corpus
	universes warmUniverses // average-warm only
	digests   digestTable
}

func setupCompute(workload string, workers int, digests digestTable) (*computeBench, error) {
	names := poolCircuits(workload)
	cp, err := synthesizeCorpus(names)
	if err != nil {
		return nil, err
	}
	b := &computeBench{workload: workload, workers: workers, corpus: cp, digests: digests}
	if workload == "average-warm" {
		b.universes = warmUniverses{}
		for _, name := range names {
			cc, err := circuit.Canonicalize(cp.circuits[name])
			if err != nil {
				return nil, err
			}
			u, err := ndetect.BuildUniverse(cc, fault.Default(), ndetect.AnalyzeOptions{Workers: workers})
			if err != nil {
				return nil, err
			}
			b.universes[circuit.Hash(cc)+"|"+fault.DefaultModelID] = u
		}
	}
	return b, nil
}

func (b *computeBench) close() {}

func (b *computeBench) frontEnd() map[string]float64 {
	return b.corpus.frontEndMs(poolCircuits(b.workload))
}

// do runs one request; with a tracer it also records Encode's time there.
func (b *computeBench) do(r request, tr *reqTracer) (wall time.Duration, body []byte, doc *report.Analysis, err error) {
	req := r.req
	req.Workers = b.workers
	if b.universes != nil {
		req.Universes = b.universes
	}
	if tr != nil {
		req.Trace = tr
		req.Progress = tr.Progress
	}
	t0 := time.Now()
	doc, err = exp.AnalyzeCircuit(b.corpus.circuits[r.circuit], req)
	if err != nil {
		return 0, nil, nil, err
	}
	te := time.Now()
	body = doc.Encode()
	end := time.Now()
	if tr != nil {
		tr.self["report.encode"] += end.Sub(te)
	}
	return end.Sub(t0), body, doc, nil
}

// run issues whole blocks of the workload's request list for about dur:
// it starts another block while one more block, at the mean block time so
// far, would end less than half a block past dur, so a run ends within
// half a block of dur.
func (b *computeBench) run(seed int64, dur time.Duration, traced bool) *passResult {
	res := newPass(traced)
	start := time.Now()
	for blk := 0; ; blk++ {
		b.runBlock(res, seed, blk, traced)
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*(blk+1)) >= dur {
			break
		}
	}
	res.wall = time.Since(start)
	return res
}

// runPaired runs each of the first blocks blocks twice in a row, untraced
// then traced, so both passes see the same host conditions and their
// difference is the tracing overhead.
func (b *computeBench) runPaired(seed int64, blocks int) (ref, traced *passResult) {
	ref, traced = newPass(false), newPass(true)
	for blk := 0; blk < blocks; blk++ {
		t0 := time.Now()
		b.runBlock(ref, seed, blk, false)
		t1 := time.Now()
		b.runBlock(traced, seed, blk, true)
		ref.wall += t1.Sub(t0)
		traced.wall += time.Since(t1)
	}
	return ref, traced
}

func newPass(traced bool) *passResult {
	res := &passResult{}
	if traced {
		res.ledger = newLedger()
	}
	return res
}

// runBlock runs block blk of the request list into res.
func (b *computeBench) runBlock(res *passResult, seed int64, blk int, traced bool) {
	for _, r := range computeBlock(b.workload, seed, blk) {
		var tr *reqTracer
		if traced {
			tr = newReqTracer()
		}
		// Each request starts on a collected heap: the previous request's
		// garbage would otherwise land in this one's latency and in the
		// peak RSS at a point set by GC timing. The heap's pages stay
		// mapped: returning them to the OS would make each request fault
		// its heap back in, which a long-lived daemon does not do.
		runtime.GC()
		wall, body, doc, err := b.do(r, tr)
		s := sample{class: r.class, shape: requestShape(r), latency: wall}
		if err == nil {
			err = b.digests.check(r.key(), body)
			s.mismatch = err != nil
		} else {
			err = fmt.Errorf("%s: %w", r.key(), err)
		}
		if err != nil {
			res.fail(err)
		} else {
			s.ok = true
		}
		res.samples = append(res.samples, s)
		if traced && s.ok {
			space, _ := fault.SpaceSize(mustModel(r.req.FaultModel), b.corpus.circuits[r.circuit])
			res.ledger.add(wall, tr.self, workCounts(doc, len(body), tr.built, space))
		}
	}
}

func mustModel(id string) fault.Model {
	m, err := fault.Resolve(id)
	if err != nil {
		panic(err) // the request pools name registered models only
	}
	return m
}

// workCounts derives a request's deterministic work counts from its
// document: fault-set sizes, Procedure 1 sets and faults, parts, document
// bytes, and the T-set bytes the request built, (|F|+|G|)·⌈|U|/64⌉·8 for
// a universe it constructed (built) and for every part it analysed.
func workCounts(doc *report.Analysis, bodyLen int, built bool, space int) map[string]float64 {
	words := func(n int) float64 { return float64((n + 63) / 64 * 8) }
	c := map[string]float64{"report.document_bytes": float64(bodyLen)}
	if wc := doc.WorstCase; wc != nil {
		c["ndetect.target_faults"] = float64(wc.Targets)
		c["ndetect.untargeted_faults"] = float64(wc.Untargeted)
		if built {
			c["sim.tset_bytes"] = float64(wc.Targets+wc.Untargeted) * words(space)
		}
	}
	if a := doc.Average; a != nil {
		c["ndetect.procedure1_faults"] = float64(a.Faults)
		if a.Faults > 0 {
			c["ndetect.procedure1_sets"] = float64(doc.Options.K * doc.Options.NMax)
		}
	}
	if p := doc.Partitioned; p != nil {
		c["partition.parts"] = float64(len(p.Parts))
		for _, part := range p.Parts {
			c["ndetect.target_faults"] += float64(part.Targets)
			c["ndetect.untargeted_faults"] += float64(part.Untargeted)
			c["sim.tset_bytes"] += float64(part.Targets+part.Untargeted) * words(part.VectorSpace)
		}
	}
	return c
}
