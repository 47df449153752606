package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/sim"
)

// The universe artifact codec: a versioned binary serialization of the
// exhaustive analysis intermediate — the fault tables and per-fault
// detection bitsets of DESIGN.md §11's universe tier. The circuit itself
// is NOT serialized: an artifact is keyed by the canonical circuit hash,
// so the decoder always has the canonical circuit in hand and rebuilds
// fault names and universe size from it. That keeps artifacts compact and
// guarantees a decoded universe is assembled by the exact code path a
// fresh construction uses (ndetect.AssembleUniverse).
//
// Version 3 layout (all integers little-endian, no padding):
//
//	magic   "NDUV"
//	version uint16                        (bump on incompatible change)
//	model   uint16 length + bytes         fault model ID
//	size    uint64                        test-index space size — must
//	                                      match the model over the circuit
//	nT, nG  uint32, uint32                target / untargeted counts
//	form    uint8                         1 factored for the default
//	                                      model, 0 materialized for
//	                                      every other model
//	nC      uint32                        column count (0 if materialized)
//	faults  (nT+nG) × {A u32, B u32, V u8}  model-neutral fault.Descriptor
//	                                      records, targets first
//	tsets   nT × words                    target T-sets, table order;
//	                                      words = ⌈size/64⌉ uint64 each
//	then, materialized:
//	  usets nG × words                    untargeted T-sets, table order
//	or factored (the default model's bridges):
//	  nodes nC × u32                      dominant node IDs, ascending
//	  cols  nC × words                    {v : node = 1} per dominant
//	crc     uint32                        IEEE CRC-32 of everything above
//
// A factored artifact stores no T(g): decode pairs each bridge with its
// victim class's target T-set and its dominant's column
// (sim.FactorBridges), exactly as the fresh build does.
//
// Versions 1 and 2 stored every T(g) and no longer decode; neither does
// a materialized default-model artifact. Each is ErrBadArtifact, and the
// store rebuilds it: artifacts are rebuilt, never migrated.
//
// Every decode error is ErrBadArtifact-wrapped so callers can distinguish
// "stale or corrupt artifact, rebuild it" from real failures.

// universeMagic identifies a universe artifact file.
const universeMagic = "NDUV"

// UniverseCodecVersion is the artifact layout version, the only one
// DecodeUniverse reads. Readers treat any other version as a cache miss —
// stale artifacts are rebuilt, never migrated.
const UniverseCodecVersion = 3

// Values of the v3 form byte.
const (
	formMaterialized = 0
	formFactored     = 1
)

// ErrBadArtifact wraps every decode failure: wrong magic, wrong version,
// truncation, checksum mismatch, model skew, or inconsistency with the
// circuit the artifact claims to describe.
var ErrBadArtifact = fmt.Errorf("store: bad universe artifact")

func badArtifact(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadArtifact, fmt.Sprintf(format, args...))
}

// EncodeUniverse serializes a universe's fault tables and T-sets in the
// current (v3) layout, factored when the universe is.
func EncodeUniverse(u *ndetect.CircuitUniverse) []byte {
	model := u.Model.ID()
	words := (u.Size + 63) / 64
	nT, nG := len(u.TargetFaults), len(u.UntargetedFaults)
	form, nC, tail := byte(formMaterialized), 0, 8*words*nG
	if u.Columns != nil {
		form, nC = formFactored, len(u.Columns.Nodes)
		tail = nC * (4 + 8*words)
	}
	n := 4 + 2 + 2 + len(model) + 8 + 4 + 4 + 1 + 4 + 9*(nT+nG) + 8*words*nT + tail + 4
	buf := make([]byte, 0, n)
	buf = append(buf, universeMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, UniverseCodecVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(model)))
	buf = append(buf, model...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(u.Size))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nT))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nG))
	buf = append(buf, form)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nC))
	for _, ds := range [2][]fault.Descriptor{u.TargetFaults, u.UntargetedFaults} {
		for _, d := range ds {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.A))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.B))
			buf = append(buf, d.V)
		}
	}
	buf = appendWords(buf, u.Targets)
	if u.Columns == nil {
		buf = appendWords(buf, u.Untargeted)
	} else {
		for _, node := range u.Columns.Nodes {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(node))
		}
		for _, col := range u.Columns.One {
			for _, w := range col.Words() {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func appendWords(buf []byte, fs []ndetect.Fault) []byte {
	for _, f := range fs {
		for _, w := range f.Words(nil) {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return buf
}

// DecodeUniverse rebuilds a universe for the given canonical circuit and
// fault model from an encoded artifact. The circuit must be the one the
// artifact was built from (same canonical hash); the artifact's model ID,
// space size and descriptor consistency are all verified, and any mismatch
// — including model skew, the artifact belonging to a different model —
// returns an ErrBadArtifact-wrapped error so readers rebuild.
func DecodeUniverse(c *circuit.Circuit, m fault.Model, data []byte) (*ndetect.CircuitUniverse, error) {
	if len(data) < 4+2+8+4+4+4 {
		return nil, badArtifact("truncated header (%d bytes)", len(data))
	}
	if string(data[:4]) != universeMagic {
		return nil, badArtifact("wrong magic %q", data[:4])
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, badArtifact("checksum mismatch")
	}
	r := reader{buf: body[4:]}
	if v := r.u16(); v != UniverseCodecVersion {
		return nil, badArtifact("version %d (want %d)", v, UniverseCodecVersion)
	}
	if len(r.buf)-r.off < 2 {
		return nil, badArtifact("truncated model field")
	}
	ml := int(r.u16())
	if len(r.buf)-r.off < ml+8+4+4+1+4 {
		return nil, badArtifact("truncated model field (%d bytes)", ml)
	}
	model := string(r.buf[r.off : r.off+ml])
	r.off += ml
	if model != m.ID() {
		return nil, badArtifact("artifact model %q, reader wants %q", model, m.ID())
	}
	wantSize, err := fault.SpaceSize(m, c)
	if err != nil {
		return nil, badArtifact("%v", err)
	}
	size := int(r.u64())
	if size != wantSize || size <= 0 {
		return nil, badArtifact("space size %d does not match model %s over circuit (%d)", size, m.ID(), wantSize)
	}
	nT, nG := int(r.u32()), int(r.u32())
	// The default model's bridges are stored factored; every other model
	// is materialized, with no columns.
	form, nC := r.u8(), int(r.u32())
	wantForm := byte(formMaterialized)
	if m.ID() == fault.DefaultModelID {
		wantForm = formFactored
	}
	if form != wantForm || form == formMaterialized && nC != 0 {
		return nil, badArtifact("form %d with %d columns, model %s is stored in form %d", form, nC, m.ID(), wantForm)
	}
	words := (size + 63) / 64
	tail := 8 * words * nG
	if form == formFactored {
		tail = nC * (4 + 8*words)
	}
	need := 9*(nT+nG) + 8*words*nT + tail
	if nT < 0 || nG < 0 || nC < 0 || len(r.buf)-r.off != need {
		return nil, badArtifact("payload is %d bytes, want %d", len(r.buf)-r.off, need)
	}
	readDescs := func(set fault.Set, n int) ([]fault.Descriptor, error) {
		p := m.Provider(set)
		out := make([]fault.Descriptor, n)
		for i := range out {
			d := fault.Descriptor{A: int32(r.u32()), B: int32(r.u32()), V: r.u8()}
			if err := p.Validate(c, d); err != nil {
				return nil, badArtifact("fault %d of set %d: %v", i, set, err)
			}
			out[i] = d
		}
		return out, nil
	}
	targets, err := readDescs(fault.TargetSet, nT)
	if err != nil {
		return nil, err
	}
	untargeted, err := readDescs(fault.UntargetedSet, nG)
	if err != nil {
		return nil, err
	}
	ts := &sim.TSets{Targets: readSets(&r, nT, size, words), Kept: untargeted}
	if form == formMaterialized {
		ts.Untargeted = readSets(&r, nG, size, words)
	} else if err := readColumns(c, &r, ts, targets, nC, size, words); err != nil {
		return nil, err
	}
	u, err := ndetect.AssembleUniverse(c, m, targets, ts)
	if err != nil {
		return nil, badArtifact("%v", err)
	}
	return u, nil
}

// readColumns reads a factored artifact's dominant columns into ts and
// pairs every bridge in ts.Kept with its factors.
func readColumns(c *circuit.Circuit, r *reader, ts *sim.TSets, targets []fault.Descriptor, nC, size, words int) error {
	nodes := make([]int32, nC)
	for i := range nodes {
		nodes[i] = int32(r.u32())
		if nodes[i] < 0 || int(nodes[i]) >= c.NumNodes() || i > 0 && nodes[i] <= nodes[i-1] {
			return badArtifact("column %d names node %d (of %d, ascending)", i, nodes[i], c.NumNodes())
		}
	}
	ts.Columns = sim.NewColumns(size, nodes)
	col := make([]uint64, words)
	for i := range nodes {
		for w := range col {
			col[w] = r.u64()
		}
		ts.Columns.Store(i, 0, col)
	}
	var err error
	if ts.Victim, ts.Column, err = sim.FactorBridges(c, targets, ts.Columns, ts.Kept); err != nil {
		return badArtifact("%v", err)
	}
	return nil
}

func readSets(r *reader, n, size, words int) []*bitset.Set {
	sets := make([]*bitset.Set, n)
	for i := range sets {
		s := bitset.New(size)
		for w := 0; w < words; w++ {
			s.SetWord(w, r.u64())
		}
		sets[i] = s
	}
	return sets
}

// reader is a tiny cursor over a length-prechecked buffer (DecodeUniverse
// validates lengths before the corresponding field reads).
type reader struct {
	buf []byte
	off int
}

func (r *reader) u8() byte { b := r.buf[r.off]; r.off++; return b }
func (r *reader) u16() uint16 {
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}
func (r *reader) u32() uint32 {
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}
func (r *reader) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}
