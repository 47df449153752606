package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
)

func c17Universe(t *testing.T) (*circuit.Circuit, *ndetect.CircuitUniverse) {
	t.Helper()
	raw, err := circuit.EmbeddedBench("c17")
	if err != nil {
		t.Fatal(err)
	}
	c, err := circuit.Canonicalize(raw)
	if err != nil {
		t.Fatal(err)
	}
	u, err := ndetect.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, u
}

// A decoded universe must be indistinguishable from the one that was
// encoded: same fault tables, names, and T-sets, in the same order —
// that is what makes analyses over it byte-identical to cold runs.
func TestUniverseCodecRoundTrip(t *testing.T) {
	c, u := c17Universe(t)
	got, err := DecodeUniverse(c, fault.Default(), EncodeUniverse(u))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != u.Size {
		t.Fatalf("size %d, want %d", got.Size, u.Size)
	}
	if len(got.Targets) != len(u.Targets) || len(got.Untargeted) != len(u.Untargeted) {
		t.Fatalf("counts (%d,%d), want (%d,%d)",
			len(got.Targets), len(got.Untargeted), len(u.Targets), len(u.Untargeted))
	}
	gotSA, wantSA := got.StuckAt(), u.StuckAt()
	for i := range u.Targets {
		if gotSA[i] != wantSA[i] {
			t.Fatalf("stuck-at %d: %+v != %+v", i, gotSA[i], wantSA[i])
		}
		if got.Targets[i].Name != u.Targets[i].Name || !got.Targets[i].T.Equal(u.Targets[i].T) {
			t.Fatalf("target %d differs", i)
		}
	}
	gotBR, wantBR := got.Bridges(), u.Bridges()
	for i := range u.Untargeted {
		if gotBR[i] != wantBR[i] {
			t.Fatalf("bridge %d: %+v != %+v", i, gotBR[i], wantBR[i])
		}
		if got.Untargeted[i].Name != u.Untargeted[i].Name || !got.Untargeted[i].Set().Equal(u.Untargeted[i].Set()) {
			t.Fatalf("untargeted %d differs", i)
		}
	}
	if got.Circuit != c {
		t.Fatal("decoded universe must bind the caller's circuit")
	}
	if got.Model.ID() != fault.DefaultModelID {
		t.Fatalf("decoded model %q", got.Model.ID())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Non-default models round-trip with their own descriptor vocabulary and
// test-index space (transition: |U|² pair indices).
func TestUniverseCodecRoundTripTransition(t *testing.T) {
	c, _ := c17Universe(t)
	m, err := fault.Resolve("transition")
	if err != nil {
		t.Fatal(err)
	}
	u, err := ndetect.BuildUniverse(c, m, ndetect.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUniverse(c, m, EncodeUniverse(u))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != u.Size || got.Model.ID() != "transition" {
		t.Fatalf("size %d model %q, want %d transition", got.Size, got.Model.ID(), u.Size)
	}
	if len(got.Targets) != len(u.Targets) || len(got.Untargeted) != len(u.Untargeted) {
		t.Fatalf("counts (%d,%d), want (%d,%d)",
			len(got.Targets), len(got.Untargeted), len(u.Targets), len(u.Untargeted))
	}
	for i := range u.Targets {
		if got.TargetFaults[i] != u.TargetFaults[i] || got.Targets[i].Name != u.Targets[i].Name ||
			!got.Targets[i].T.Equal(u.Targets[i].T) {
			t.Fatalf("target %d differs", i)
		}
	}
	for i := range u.Untargeted {
		if got.UntargetedFaults[i] != u.UntargetedFaults[i] || got.Untargeted[i].Name != u.Untargeted[i].Name ||
			!got.Untargeted[i].T.Equal(u.Untargeted[i].T) {
			t.Fatalf("untargeted %d differs", i)
		}
	}
	if got.StuckAt() != nil {
		t.Fatal("transition universe must not offer single stuck-at targets")
	}
}

// AssembleUniverse names each fault set into one shared string; every
// name sliced from it, in a fresh universe and in one decoded from an
// artifact, must be exactly the provider's rendering of that one fault.
func TestAssembleUniverseNamesMatchPerFault(t *testing.T) {
	var circuits []*circuit.Circuit
	for _, name := range []string{"c17", "s27"} {
		c, err := circuit.EmbeddedBench(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	bb, _ := bench.ByName("bbtas")
	r, err := bb.SynthesizeDefault()
	if err != nil {
		t.Fatal(err)
	}
	circuits = append(circuits, r.Circuit)

	check := func(what string, u *ndetect.CircuitUniverse) {
		t.Helper()
		tp, up := u.Model.Provider(fault.TargetSet), u.Model.Provider(fault.UntargetedSet)
		for i, f := range u.Targets {
			if want := string(tp.AppendName(nil, u.Circuit, u.TargetFaults[i])); f.Name != want {
				t.Fatalf("%s: target %d named %q, want %q", what, i, f.Name, want)
			}
		}
		for i, g := range u.Untargeted {
			if want := string(up.AppendName(nil, u.Circuit, u.UntargetedFaults[i])); g.Name != want {
				t.Fatalf("%s: untargeted %d named %q, want %q", what, i, g.Name, want)
			}
		}
	}
	for _, c := range circuits {
		for _, id := range fault.ModelIDs() {
			m, _ := fault.Lookup(id)
			u, err := ndetect.BuildUniverse(c, m, ndetect.AnalyzeOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(u.Untargeted) == 0 {
				t.Fatalf("%s %s: no untargeted faults to name", c.Name, id)
			}
			check(c.Name+" "+id+" fresh", u)
			got, err := DecodeUniverse(c, m, EncodeUniverse(u))
			if err != nil {
				t.Fatal(err)
			}
			check(c.Name+" "+id+" decoded", got)
		}
	}
}

// Corruption, truncation, version skew, model skew and circuit mismatch
// are all ErrBadArtifact — a reader's signal to rebuild, never to trust.
func TestUniverseCodecRejects(t *testing.T) {
	c, u := c17Universe(t)
	good := EncodeUniverse(u)
	def := fault.Default()

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	short := good[:len(good)-9]
	badMagic := append([]byte("XXXX"), good[4:]...)
	badVersion := append([]byte(nil), good...)
	badVersion[4] = 99 // version field; breaks the checksum too, either way rejected

	for name, data := range map[string][]byte{
		"corrupt": flipped, "truncated": short, "magic": badMagic,
		"version": badVersion, "empty": nil,
	} {
		if _, err := DecodeUniverse(c, def, data); !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("%s: err = %v, want ErrBadArtifact", name, err)
		}
	}

	// Model skew: a default-model artifact must not bind to a reader that
	// expects a different model over the same circuit.
	tr, err := fault.Resolve("transition")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeUniverse(c, tr, good); !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("model skew: err = %v, want ErrBadArtifact", err)
	}

	// An artifact for a different circuit (different |U|) must not bind.
	other, err := circuit.EmbeddedBench("s27")
	if err != nil {
		t.Fatal(err)
	}
	if other.VectorSpaceSize() != c.VectorSpaceSize() {
		if _, err := DecodeUniverse(other, def, good); !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("wrong circuit: err = %v, want ErrBadArtifact", err)
		}
	}
}

// encodeUniverseV1 reproduces the pre-registry (version 1) artifact
// layout for backward-compatibility tests: 5-byte stuck-at records,
// 9-byte bridge records, no model field.
func encodeUniverseV1(t *testing.T, u *ndetect.CircuitUniverse) []byte {
	t.Helper()
	sa, br := u.StuckAt(), u.Bridges()
	buf := []byte("NDUV")
	buf = binary.LittleEndian.AppendUint16(buf, 1)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(u.Size))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sa)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(br)))
	for _, f := range sa {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Node))
		v := byte(0)
		if f.Value {
			v = 1
		}
		buf = append(buf, v)
	}
	for _, g := range br {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g.Dominant))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g.Victim))
		v := byte(0)
		if g.Value {
			v = 1
		}
		buf = append(buf, v)
	}
	for _, f := range u.Targets {
		for _, w := range f.T.Words() {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	for _, g := range u.Untargeted {
		for _, w := range g.Words(nil) {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Version 1 artifacts predate the fault-model registry and store every
// T(g): they no longer decode under any model, and a store holding one
// rebuilds the universe.
func TestUniverseCodecV1Rebuilds(t *testing.T) {
	c, u := c17Universe(t)
	v1 := encodeUniverseV1(t, u)
	rejectedAndRebuilt(t, "v1", c, v1)

	tr, err := fault.Resolve("transition")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeUniverse(c, tr, v1); !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("v1 under transition: err = %v, want ErrBadArtifact", err)
	}
}
