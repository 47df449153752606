package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/sim"
)

// codecCircuits are c17, s27 and bbtas, canonicalized as the store keys them.
func codecCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	var out []*circuit.Circuit
	for _, name := range []string{"c17", "s27"} {
		c, err := circuit.EmbeddedBench(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	bb, _ := bench.ByName("bbtas")
	r, err := bb.SynthesizeDefault()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, r.Circuit)
	for i, c := range out {
		if out[i], err = circuit.Canonicalize(c); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sameFaultWords fails unless two universes hold the same descriptors,
// names and detection words, fault by fault, read through Fault.Words.
func sameFaultWords(t *testing.T, what string, got, want *ndetect.CircuitUniverse) {
	t.Helper()
	if got.Size != want.Size || len(got.Targets) != len(want.Targets) || len(got.Untargeted) != len(want.Untargeted) {
		t.Fatalf("%s: shape (%d, %d, %d), want (%d, %d, %d)", what, got.Size, len(got.Targets), len(got.Untargeted),
			want.Size, len(want.Targets), len(want.Untargeted))
	}
	for i := range want.Targets {
		if got.TargetFaults[i] != want.TargetFaults[i] || got.Targets[i].Name != want.Targets[i].Name ||
			!slices.Equal(got.Targets[i].Words(nil), want.Targets[i].Words(nil)) {
			t.Fatalf("%s: target %d differs", what, i)
		}
	}
	for j := range want.Untargeted {
		if got.UntargetedFaults[j] != want.UntargetedFaults[j] || got.Untargeted[j].Name != want.Untargeted[j].Name ||
			!slices.Equal(got.Untargeted[j].Words(nil), want.Untargeted[j].Words(nil)) {
			t.Fatalf("%s: untargeted %d differs", what, j)
		}
	}
}

// Every model round-trips through v3: the default model factored (its
// columns restored, no T(g) stored), msa2 and transition materialized.
// Re-encoding the decoded universe gives the same bytes.
func TestUniverseCodecV3RoundTripAllModels(t *testing.T) {
	for _, c := range codecCircuits(t) {
		for _, id := range fault.ModelIDs() {
			m, _ := fault.Resolve(id)
			u, err := ndetect.BuildUniverse(c, m, ndetect.AnalyzeOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			data := EncodeUniverse(u)
			if v := binary.LittleEndian.Uint16(data[4:]); v != 3 {
				t.Fatalf("%s %s: version %d, want 3", c.Name, id, v)
			}
			got, err := DecodeUniverse(c, m, data)
			if err != nil {
				t.Fatalf("%s %s: %v", c.Name, id, err)
			}
			if factored := id == fault.DefaultModelID; (u.Columns != nil) != factored || (got.Columns != nil) != factored {
				t.Fatalf("%s %s: factored fresh %v decoded %v, want %v", c.Name, id, u.Columns != nil, got.Columns != nil, factored)
			}
			sameFaultWords(t, c.Name+" "+id, got, u)
			if !bytes.Equal(EncodeUniverse(got), data) {
				t.Fatalf("%s %s: re-encoding the decoded universe changed its bytes", c.Name, id)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// encodeUniverseV2 reproduces the version 2 layout: v3 without the form
// byte and column count, every untargeted T-set stored as words.
func encodeUniverseV2(u *ndetect.CircuitUniverse) []byte {
	model := u.Model.ID()
	buf := []byte("NDUV")
	buf = binary.LittleEndian.AppendUint16(buf, 2)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(model)))
	buf = append(buf, model...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(u.Size))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(u.TargetFaults)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(u.UntargetedFaults)))
	for _, ds := range [2][]fault.Descriptor{u.TargetFaults, u.UntargetedFaults} {
		for _, d := range ds {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.A))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.B))
			buf = append(buf, d.V)
		}
	}
	for _, fs := range [2][]ndetect.Fault{u.Targets, u.Untargeted} {
		for _, f := range fs {
			for _, w := range f.Words(nil) {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// A version 2 default-model artifact, and a v3 one with every T(g)
// materialized, no longer decode; a store holding either rebuilds the
// factored universe.
func TestUniverseCodecV2Rebuilds(t *testing.T) {
	for _, c := range codecCircuits(t) {
		u, err := ndetect.BuildUniverse(c, fault.Default(), ndetect.AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rejectedAndRebuilt(t, c.Name+" v2", c, encodeUniverseV2(u))
		rejectedAndRebuilt(t, c.Name+" materialized v3", c, EncodeUniverse(withColumns(u, nil)))
	}
}

// withColumns returns a universe with u's tables and the given columns.
// It is built field by field: a CircuitUniverse holds its worst case
// under a sync.Once, so it is never copied whole.
func withColumns(u *ndetect.CircuitUniverse, cols *sim.Columns) *ndetect.CircuitUniverse {
	return &ndetect.CircuitUniverse{
		Universe:         u.Universe,
		Circuit:          u.Circuit,
		Model:            u.Model,
		TargetFaults:     u.TargetFaults,
		UntargetedFaults: u.UntargetedFaults,
		Columns:          cols,
	}
}

// rejectedAndRebuilt checks that a default-model artifact is
// ErrBadArtifact, and that a store holding it in the circuit's slot drops
// it, returns the universe a fresh build gives, and stores that
// universe's v3 artifact in its place.
func rejectedAndRebuilt(t *testing.T, what string, c *circuit.Circuit, artifact []byte) {
	t.Helper()
	if _, err := DecodeUniverse(c, fault.Default(), artifact); !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("%s: err = %v, want ErrBadArtifact", what, err)
	}
	s := openTemp(t, Options{})
	hash := circuit.Hash(c)
	if err := s.PutUniverse(hash, "", artifact); err != nil {
		t.Fatal(err)
	}
	got, err := s.Universe(c, fault.Default(), ndetect.AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	fresh, err := ndetect.BuildUniverse(c, fault.Default(), ndetect.AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Columns == nil {
		t.Fatalf("%s: the rebuilt universe must be factored", what)
	}
	sameFaultWords(t, what+" rebuilt", got, fresh)
	if stored, ok := s.GetUniverse(hash, ""); !ok || !bytes.Equal(stored, EncodeUniverse(fresh)) {
		t.Fatalf("%s: the store kept the old artifact instead of the rebuilt one", what)
	}
}

// A factored artifact whose bridges name a dominant with no column, or
// whose columns are out of order, is ErrBadArtifact.
func TestUniverseCodecV3RejectsBadColumns(t *testing.T) {
	c, u := c17Universe(t)
	cols := u.Columns
	if cols == nil || len(cols.Nodes) < 2 {
		t.Fatalf("c17 needs a factored universe with two columns, got %+v", cols)
	}
	missing := EncodeUniverse(withColumns(u, &sim.Columns{Nodes: cols.Nodes[1:], One: cols.One[1:], Zero: cols.Zero[1:]}))
	swapped := EncodeUniverse(withColumns(u, &sim.Columns{
		Nodes: append([]int32{cols.Nodes[1], cols.Nodes[0]}, cols.Nodes[2:]...),
		One:   append([]*bitset.Set{cols.One[1], cols.One[0]}, cols.One[2:]...),
		Zero:  cols.Zero,
	}))
	for name, data := range map[string][]byte{"missing column": missing, "unordered columns": swapped} {
		if _, err := DecodeUniverse(c, fault.Default(), data); !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("%s: err = %v, want ErrBadArtifact", name, err)
		}
	}
}

// A decoded factored universe carries its factor indices into the worst
// case, which decides nmin(g) = 1 from them: at 1 and 3 workers it
// equals the fresh universe's worst case and the direct definition NMin.
// Without the indices, the decoded universe could not take that path; a
// decode that kept the columns but lost the indices fails here.
func TestUniverseCodecV3WorstCase(t *testing.T) {
	circuits := codecCircuits(t)
	bb, _ := bench.ByName("bbara")
	r, err := bb.SynthesizeDefault()
	if err != nil {
		t.Fatal(err)
	}
	c, err := circuit.Canonicalize(r.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(circuits, c) {
		u, err := ndetect.BuildUniverse(c, fault.Default(), ndetect.AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeUniverse(c, fault.Default(), EncodeUniverse(u))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got.Columns == nil {
			t.Fatalf("%s: a v3 default-model artifact must decode factored", c.Name)
		}
		want := ndetect.WorstCaseWorkers(&u.Universe, 1).NMin
		for j, g := range got.Untargeted {
			if n := ndetect.NMin(g, got.Targets); n != want[j] {
				t.Fatalf("%s: fresh worst case gives nmin(%s) = %d, NMin %d", c.Name, g.Name, want[j], n)
			}
		}
		for _, workers := range []int{1, 3} {
			if !slices.Equal(ndetect.WorstCaseWorkers(&got.Universe, workers).NMin, want) {
				t.Fatalf("%s workers=%d: worst case over the decoded universe differs", c.Name, workers)
			}
		}
	}
}
