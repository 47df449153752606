package fault

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"ndetect/internal/circuit"
)

// The fault-model registry. The paper's machinery — worst-case nmin,
// Procedure 1, Definition 2 — consumes only per-fault detection bitsets
// over a test-index space; the choice of structural fault universes is an
// input. A Model packages that choice: the targeted set F a hypothetical
// test generator aims at, the untargeted set G whose n-detection coverage
// the analyses measure, and the index space their T-sets range over.
//
// A model's structural half lives here (enumeration, naming, validation —
// pure functions of the circuit); its semantic half (building T-sets
// against the compiled engine) is registered separately in package sim
// under the same model ID, because this package cannot import the engine.
// The two halves together are the provider; DESIGN.md §12 records the
// split.

// Set selects one of the two fault sets a model provides.
type Set int

const (
	// TargetSet is F: the faults a deterministic test generator targets.
	TargetSet Set = iota
	// UntargetedSet is G: the faults whose coverage is analyzed.
	UntargetedSet
)

// Space is the kind of test-index space a model's T-sets range over.
type Space int

const (
	// SingleVector T-sets index the exhaustive input space U directly.
	SingleVector Space = iota
	// VectorPair T-sets index ordered two-pattern tests (v1, v2) ∈ U×U,
	// flattened as v1·|U| + v2.
	VectorPair
)

// Descriptor is one structural fault in a model-neutral record: two node
// IDs and a value byte, interpreted per model. The stuck-at set uses
// {A: node, B: -1, V: stuck value}; bridges use {A: dominant, B: victim,
// V: dominant value}; transition faults use {A: node, B: -1, V: mimicked
// stuck value}; stuck-at pairs use {A: first node, B: second node,
// V: first value in bit 0, second value in bit 1}. The fixed shape is
// what lets the store codec serialize any model's tables uniformly.
type Descriptor struct {
	A, B int32
	V    uint8
}

// StuckAt interprets the descriptor as a single stuck-at fault.
func (d Descriptor) StuckAt() StuckAt { return StuckAt{Node: int(d.A), Value: d.V != 0} }

// Bridge interprets the descriptor as a dominance bridging fault.
func (d Descriptor) Bridge() Bridge {
	return Bridge{Dominant: int(d.A), Victim: int(d.B), Value: d.V != 0}
}

// StuckAtDescriptor packs a stuck-at fault into a descriptor.
func StuckAtDescriptor(f StuckAt) Descriptor {
	return Descriptor{A: int32(f.Node), B: -1, V: boolBit(f.Value)}
}

// BridgeDescriptor packs a bridging fault into a descriptor.
func BridgeDescriptor(g Bridge) Descriptor {
	return Descriptor{A: int32(g.Dominant), B: int32(g.Victim), V: boolBit(g.Value)}
}

func boolBit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// SetProvider is the structural half of one fault set: deterministic
// enumeration, paper-notation naming, and validation of descriptors that
// arrive from outside (the store codec decodes artifacts into descriptors
// and must reject records the model cannot have produced).
type SetProvider interface {
	Enumerate(c *circuit.Circuit) []Descriptor
	// AppendName appends the fault's name to dst. Names are appended, not
	// returned, so a whole fault set can be named into one string
	// (ndetect.AssembleUniverse).
	AppendName(dst []byte, c *circuit.Circuit, d Descriptor) []byte
	Validate(c *circuit.Circuit, d Descriptor) error
	// Label is the human phrase for count lines ("collapsed stuck-at
	// faults", "detectable non-feedback four-way bridging faults") — the
	// CLI prints it verbatim, so the default model's labels reproduce the
	// pre-registry output byte for byte.
	Label() string
}

// Model is one registered fault model: an ID, a test-index space, and the
// two fault sets.
type Model interface {
	ID() string
	Space() Space
	Provider(set Set) SetProvider
	// Def2Capable reports whether the model's targets are single stuck-at
	// faults over the single-vector space — the shape the paper's
	// Definition 2 (3-valued common-test counting) requires.
	Def2Capable() bool
}

// Convenience wrappers over Provider.

// EnumerateSet enumerates one of m's fault sets.
func EnumerateSet(m Model, c *circuit.Circuit, set Set) []Descriptor {
	return m.Provider(set).Enumerate(c)
}

// SpaceSize returns the size of m's test-index space over circuit c.
func SpaceSize(m Model, c *circuit.Circuit) (int, error) {
	size := c.VectorSpaceSize()
	switch m.Space() {
	case SingleVector:
		return size, nil
	case VectorPair:
		if size != 0 && size > math.MaxInt/size {
			return 0, fmt.Errorf("fault: model %s: pair space |U|² overflows for |U| = %d", m.ID(), size)
		}
		return size * size, nil
	}
	return 0, fmt.Errorf("fault: model %s: unknown space %d", m.ID(), m.Space())
}

// model is the one Model implementation: two providers composed under an
// ID. Compose is how every model — built-in or future — is assembled.
type model struct {
	id         string
	space      Space
	def2       bool
	targets    SetProvider
	untargeted SetProvider
}

func (m *model) ID() string        { return m.id }
func (m *model) Space() Space      { return m.space }
func (m *model) Def2Capable() bool { return m.def2 }
func (m *model) Provider(set Set) SetProvider {
	if set == TargetSet {
		return m.targets
	}
	return m.untargeted
}

// Compose assembles a Model from a target and an untargeted SetProvider.
func Compose(id string, space Space, def2Capable bool, targets, untargeted SetProvider) Model {
	return &model{id: id, space: space, def2: def2Capable, targets: targets, untargeted: untargeted}
}

// DefaultModelID names the paper's own configuration: collapsed stuck-at
// targets with the detectable non-feedback four-way bridge G universe.
const DefaultModelID = "stuckat+bridge4"

var (
	registryMu sync.RWMutex
	registry   = map[string]Model{}
)

// Register adds a model to the registry. Duplicate IDs panic: model IDs
// join result identities and store keys, so a silent replacement would
// corrupt both.
func Register(m Model) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[m.ID()]; dup {
		panic(fmt.Sprintf("fault: model %q registered twice", m.ID()))
	}
	registry[m.ID()] = m
}

// Lookup returns the model registered under id.
func Lookup(id string) (Model, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	m, ok := registry[id]
	return m, ok
}

// Resolve maps a user-supplied model ID onto a registered model; the
// empty string means the default model.
func Resolve(id string) (Model, error) {
	if id == "" {
		id = DefaultModelID
	}
	if m, ok := Lookup(id); ok {
		return m, nil
	}
	return nil, fmt.Errorf("fault: unknown fault model %q (have %v)", id, ModelIDs())
}

// Default returns the default model.
func Default() Model {
	m, _ := Lookup(DefaultModelID)
	return m
}

// ModelIDs lists every registered model ID, sorted.
func ModelIDs() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func validNode(c *circuit.Circuit, id int32) error {
	if id < 0 || int(id) >= c.NumNodes() {
		return fmt.Errorf("fault: node %d out of range [0,%d)", id, c.NumNodes())
	}
	return nil
}

// StuckAtProvider is the collapsed single stuck-at set — the paper's
// target set F, shared by every built-in model whose targets are
// stuck-at faults.
type StuckAtProvider struct{}

func (StuckAtProvider) Enumerate(c *circuit.Circuit) []Descriptor {
	sas := CollapseStuckAt(c)
	out := make([]Descriptor, len(sas))
	for i, f := range sas {
		out[i] = StuckAtDescriptor(f)
	}
	return out
}

// AppendName renders the fault in the paper's l/a notation: "g/0".
func (StuckAtProvider) AppendName(dst []byte, c *circuit.Circuit, d Descriptor) []byte {
	dst = append(dst, c.Node(int(d.A)).Name...)
	return append(dst, '/', '0'+boolBit(d.V != 0))
}

func (StuckAtProvider) Validate(c *circuit.Circuit, d Descriptor) error {
	if err := validNode(c, d.A); err != nil {
		return err
	}
	if d.B != -1 || d.V > 1 {
		return fmt.Errorf("fault: malformed stuck-at descriptor %+v", d)
	}
	return nil
}

func (StuckAtProvider) Label() string { return "collapsed stuck-at faults" }

// BridgeProvider is the candidate four-way bridging set — the paper's
// untargeted universe G (detectability is filtered after T-sets exist).
type BridgeProvider struct{}

func (BridgeProvider) Enumerate(c *circuit.Circuit) []Descriptor {
	brs := Bridges(c)
	out := make([]Descriptor, len(brs))
	for i, g := range brs {
		out[i] = BridgeDescriptor(g)
	}
	return out
}

// AppendName renders the fault in the paper's (l1,a1,l2,a2) tuple
// notation, with a2 = ¬a1: "(g1,0,g2,1)".
func (BridgeProvider) AppendName(dst []byte, c *circuit.Circuit, d Descriptor) []byte {
	a1 := boolBit(d.V != 0)
	dst = append(dst, '(')
	dst = append(dst, c.Node(int(d.A)).Name...)
	dst = append(dst, ',', '0'+a1, ',')
	dst = append(dst, c.Node(int(d.B)).Name...)
	return append(dst, ',', '1'-a1, ')')
}

func (BridgeProvider) Validate(c *circuit.Circuit, d Descriptor) error {
	if err := validNode(c, d.A); err != nil {
		return err
	}
	if err := validNode(c, d.B); err != nil {
		return err
	}
	if d.A == d.B || d.V > 1 {
		return fmt.Errorf("fault: malformed bridge descriptor %+v", d)
	}
	return nil
}

func (BridgeProvider) Label() string { return "detectable non-feedback four-way bridging faults" }

// TransitionProvider is the gross-delay transition set over two-pattern
// tests: per non-constant node, a slow-to-rise fault (V = 0, behaves as
// stuck-at-0 on the launch vector) and a slow-to-fall fault (V = 1,
// behaves as stuck-at-1). Sites are not collapsed: structurally
// equivalent stuck-at faults share detection sets but not initialization
// sets, so transition faults on equivalent lines are distinct.
type TransitionProvider struct{}

func (TransitionProvider) Enumerate(c *circuit.Circuit) []Descriptor {
	sas := AllStuckAt(c)
	out := make([]Descriptor, len(sas))
	for i, f := range sas {
		out[i] = StuckAtDescriptor(f)
	}
	return out
}

// AppendName renders slow-to-rise as "g/str" and slow-to-fall as "g/stf".
func (TransitionProvider) AppendName(dst []byte, c *circuit.Circuit, d Descriptor) []byte {
	dst = append(dst, c.Node(int(d.A)).Name...)
	if d.V != 0 {
		return append(dst, "/stf"...)
	}
	return append(dst, "/str"...)
}

func (TransitionProvider) Validate(c *circuit.Circuit, d Descriptor) error {
	if err := validNode(c, d.A); err != nil {
		return err
	}
	if d.B != -1 || d.V > 1 {
		return fmt.Errorf("fault: malformed transition descriptor %+v", d)
	}
	return nil
}

func (TransitionProvider) Label() string { return "detectable transition faults (two-pattern tests)" }

// PairStuckAtProvider is the pairwise multiple stuck-at set the paper
// excludes: every unordered pair of collapsed stuck-at faults on distinct
// nodes, both present simultaneously. Enumeration order follows the
// collapsed list (i < j), so A < B always holds.
type PairStuckAtProvider struct{}

func (PairStuckAtProvider) Enumerate(c *circuit.Circuit) []Descriptor {
	sas := CollapseStuckAt(c)
	var out []Descriptor
	for i := 0; i < len(sas); i++ {
		for j := i + 1; j < len(sas); j++ {
			if sas[i].Node == sas[j].Node {
				continue
			}
			out = append(out, Descriptor{
				A: int32(sas[i].Node),
				B: int32(sas[j].Node),
				V: boolBit(sas[i].Value) | boolBit(sas[j].Value)<<1,
			})
		}
	}
	return out
}

// AppendName renders the pair in stuck-at notation: "{a/0,b/1}".
func (PairStuckAtProvider) AppendName(dst []byte, c *circuit.Circuit, d Descriptor) []byte {
	dst = append(dst, '{')
	dst = append(dst, c.Node(int(d.A)).Name...)
	dst = append(dst, '/', '0'+(d.V&1), ',')
	dst = append(dst, c.Node(int(d.B)).Name...)
	return append(dst, '/', '0'+(d.V>>1&1), '}')
}

func (PairStuckAtProvider) Validate(c *circuit.Circuit, d Descriptor) error {
	if err := validNode(c, d.A); err != nil {
		return err
	}
	if err := validNode(c, d.B); err != nil {
		return err
	}
	if d.A >= d.B || d.V > 3 {
		return fmt.Errorf("fault: malformed stuck-at pair descriptor %+v", d)
	}
	return nil
}

func (PairStuckAtProvider) Label() string { return "detectable double stuck-at faults" }

func init() {
	Register(Compose(DefaultModelID, SingleVector, true, StuckAtProvider{}, BridgeProvider{}))
	Register(Compose("transition", VectorPair, false, StuckAtProvider{}, TransitionProvider{}))
	Register(Compose("msa2", SingleVector, true, StuckAtProvider{}, PairStuckAtProvider{}))
}
