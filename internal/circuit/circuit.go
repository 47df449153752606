// Package circuit models gate-level combinational netlists.
//
// A Circuit is a DAG of nodes. Every signal that can carry a stuck-at fault —
// a primary input, a gate output, or a fanout branch — is a Node. Fanout
// branches are first-class nodes (inserted by Normalize) so that the fault
// universe of package fault matches the classical line-oriented stuck-at
// model: a stem and each of its branches are distinct fault sites.
//
// The package provides a builder API, structural validation, levelization
// (topological ordering for event-free forward simulation), reachability
// queries (used to exclude feedback bridging faults), a text netlist format
// and DOT export.
package circuit

import (
	"fmt"
	"math/bits"
	"sort"
)

// Kind identifies the function of a node.
type Kind uint8

// Node kinds. Branch nodes are inserted by Normalize; user-built circuits use
// the remaining kinds.
const (
	Input Kind = iota
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	Branch
	Const0
	Const1
)

var kindNames = map[Kind]string{
	Input:  "input",
	Buf:    "buf",
	Not:    "not",
	And:    "and",
	Nand:   "nand",
	Or:     "or",
	Nor:    "nor",
	Xor:    "xor",
	Xnor:   "xnor",
	Branch: "branch",
	Const0: "const0",
	Const1: "const1",
}

// String returns the lower-case mnemonic used by the text netlist format.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString parses a gate mnemonic. It accepts every Kind except Branch
// (branches are structural, never written by users).
func KindFromString(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s && k != Branch {
			return k, true
		}
	}
	return 0, false
}

// MinFanin returns the minimum legal fanin count for the kind.
func (k Kind) MinFanin() int {
	switch k {
	case Input, Const0, Const1:
		return 0
	case Buf, Not, Branch:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal fanin count (or -1 for unbounded).
func (k Kind) MaxFanin() int {
	switch k {
	case Input, Const0, Const1:
		return 0
	case Buf, Not, Branch:
		return 1
	default:
		return -1
	}
}

// Node is a signal in the netlist.
type Node struct {
	ID     int
	Kind   Kind
	Name   string
	Fanin  []int // IDs of driving nodes, in pin order
	Fanout []int // IDs of driven nodes (computed by finalize)
	Level  int   // topological level: Inputs/Consts at 0 (computed)

	// Stem is the ID of the fanout stem for Branch nodes, -1 otherwise.
	Stem int
}

// IsGateOutput reports whether the node is the output of a logic gate
// (anything that is not an input, constant or branch).
func (n *Node) IsGateOutput() bool {
	switch n.Kind {
	case Input, Branch, Const0, Const1:
		return false
	}
	return true
}

// IsMultiInputGateOutput reports whether the node is the output of a gate
// with two or more inputs. The paper's untargeted fault universe consists of
// bridging faults between such nodes.
func (n *Node) IsMultiInputGateOutput() bool {
	return n.IsGateOutput() && len(n.Fanin) >= 2
}

// Circuit is an immutable-after-finalize combinational netlist.
type Circuit struct {
	Name    string
	Nodes   []*Node
	Inputs  []int // node IDs of primary inputs, in declaration order
	Outputs []int // node IDs observed as primary outputs, in declaration order

	byName     map[string]int
	order      []int // topological order of node IDs (computed by finalize)
	levelOrder []int // order sorted by (Level, ID) (computed by finalize)
}

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int { return len(c.Inputs) }

// NumOutputs returns the number of primary outputs.
func (c *Circuit) NumOutputs() int { return len(c.Outputs) }

// NumNodes returns the number of nodes (signals) including branches.
func (c *Circuit) NumNodes() int { return len(c.Nodes) }

// NumGates returns the number of logic gates (excluding inputs, constants and
// branches).
func (c *Circuit) NumGates() int {
	n := 0
	for _, nd := range c.Nodes {
		if nd.IsGateOutput() {
			n++
		}
	}
	return n
}

// VectorSpaceSize returns |U| = 2^NumInputs, the size of the exhaustive input
// space the analysis enumerates, or 0 when 2^NumInputs overflows int —
// exactly the circuits that must go through the partition package instead.
func (c *Circuit) VectorSpaceSize() int {
	m := c.NumInputs()
	if m >= bits.UintSize-1 {
		return 0
	}
	return 1 << uint(m)
}

// Node returns the node with the given ID.
func (c *Circuit) Node(id int) *Node { return c.Nodes[id] }

// NodeByName returns the node with the given name.
func (c *Circuit) NodeByName(name string) (*Node, bool) {
	id, ok := c.byName[name]
	if !ok {
		return nil, false
	}
	return c.Nodes[id], true
}

// TopoOrder returns node IDs in a topological order (drivers before driven).
func (c *Circuit) TopoOrder() []int { return c.order }

// LevelOrder returns node IDs sorted by (Level, ID): a topological order
// that groups nodes into levels. It is the instruction schedule of the
// engine's one program (engine.CompileAll) — all of a level's gates are
// contiguous, so the program walks the netlist front to back exactly once.
func (c *Circuit) LevelOrder() []int { return c.levelOrder }

// MaxLevel returns the largest node level (circuit depth).
func (c *Circuit) MaxLevel() int {
	m := 0
	for _, n := range c.Nodes {
		if n.Level > m {
			m = n.Level
		}
	}
	return m
}

// Builder incrementally constructs a Circuit. Names must be unique. The
// builder is not safe for concurrent use.
type Builder struct {
	c   *Circuit
	err error
}

// NewBuilder returns a builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{c: &Circuit{
		Name:   name,
		byName: make(map[string]int),
	}}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("circuit %q: %s", b.c.Name, fmt.Sprintf(format, args...))
	}
}

func (b *Builder) newNode(kind Kind, name string, fanin []int) int {
	if _, dup := b.c.byName[name]; dup {
		b.fail("duplicate node name %q", name)
		return -1
	}
	id := len(b.c.Nodes)
	b.c.Nodes = append(b.c.Nodes, &Node{
		ID:    id,
		Kind:  kind,
		Name:  name,
		Fanin: fanin,
		Stem:  -1,
	})
	b.c.byName[name] = id
	return id
}

// Input declares a primary input.
func (b *Builder) Input(name string) {
	if b.err != nil {
		return
	}
	id := b.newNode(Input, name, nil)
	if id >= 0 {
		b.c.Inputs = append(b.c.Inputs, id)
	}
}

// Const declares a constant node with the given value.
func (b *Builder) Const(name string, value bool) {
	if b.err != nil {
		return
	}
	k := Const0
	if value {
		k = Const1
	}
	b.newNode(k, name, nil)
}

// Gate declares a gate named out computing kind over the named fanin signals,
// which must already be declared.
func (b *Builder) Gate(kind Kind, out string, fanin ...string) {
	if b.err != nil {
		return
	}
	switch kind {
	case Input, Branch, Const0, Const1:
		b.fail("gate %q: kind %v is not a gate", out, kind)
		return
	}
	if len(fanin) < kind.MinFanin() {
		b.fail("gate %q: %v needs at least %d inputs, got %d", out, kind, kind.MinFanin(), len(fanin))
		return
	}
	if maxf := kind.MaxFanin(); maxf >= 0 && len(fanin) > maxf {
		b.fail("gate %q: %v takes at most %d inputs, got %d", out, kind, maxf, len(fanin))
		return
	}
	ids := make([]int, len(fanin))
	seen := make(map[string]bool, len(fanin))
	for i, fn := range fanin {
		if seen[fn] {
			b.fail("gate %q: fanin %q listed twice", out, fn)
			return
		}
		seen[fn] = true
		id, ok := b.c.byName[fn]
		if !ok {
			b.fail("gate %q: undeclared fanin %q", out, fn)
			return
		}
		ids[i] = id
	}
	b.newNode(kind, out, ids)
}

// Output marks an already-declared signal as a primary output.
func (b *Builder) Output(name string) {
	if b.err != nil {
		return
	}
	id, ok := b.c.byName[name]
	if !ok {
		b.fail("output %q not declared", name)
		return
	}
	b.c.Outputs = append(b.c.Outputs, id)
}

// Build validates the netlist, inserts fanout branch nodes, levelizes, and
// returns the finished circuit.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	c := b.c
	if len(c.Inputs) == 0 {
		return nil, fmt.Errorf("circuit %q: no primary inputs", c.Name)
	}
	if len(c.Outputs) == 0 {
		return nil, fmt.Errorf("circuit %q: no primary outputs", c.Name)
	}
	if err := c.normalize(); err != nil {
		return nil, err
	}
	if err := c.finalize(); err != nil {
		return nil, err
	}
	return c, nil
}

// normalize inserts explicit Branch nodes wherever a node drives more than
// one consumer (gate input pins and/or a primary output). After
// normalization every non-branch node has fanout ≤ 1 toward gates, with
// branches carrying the fan-out.
func (c *Circuit) normalize() error {
	// Count consumers per node: gate pins plus output observations.
	type pin struct {
		gate int // consuming gate node ID, or -1 for a primary output slot
		slot int // fanin index within the gate, or index into Outputs
	}
	consumers := make([][]pin, len(c.Nodes))
	for _, n := range c.Nodes {
		for i, f := range n.Fanin {
			consumers[f] = append(consumers[f], pin{gate: n.ID, slot: i})
		}
	}
	for i, o := range c.Outputs {
		consumers[o] = append(consumers[o], pin{gate: -1, slot: i})
	}

	numOriginal := len(c.Nodes)
	for id := 0; id < numOriginal; id++ {
		cons := consumers[id]
		if len(cons) <= 1 {
			continue
		}
		stem := c.Nodes[id]
		for bi, p := range cons {
			brName := fmt.Sprintf("%s~%d", stem.Name, bi)
			if _, dup := c.byName[brName]; dup {
				return fmt.Errorf("circuit %q: generated branch name %q collides", c.Name, brName)
			}
			brID := len(c.Nodes)
			c.Nodes = append(c.Nodes, &Node{
				ID:    brID,
				Kind:  Branch,
				Name:  brName,
				Fanin: []int{id},
				Stem:  id,
			})
			c.byName[brName] = brID
			if p.gate >= 0 {
				c.Nodes[p.gate].Fanin[p.slot] = brID
			} else {
				c.Outputs[p.slot] = brID
			}
		}
	}
	return nil
}

// finalize computes fanout lists, checks acyclicity, levelizes, and computes
// the topological order.
func (c *Circuit) finalize() error {
	for _, n := range c.Nodes {
		n.Fanout = n.Fanout[:0]
	}
	indeg := make([]int, len(c.Nodes))
	for _, n := range c.Nodes {
		seen := make(map[int]bool, len(n.Fanin))
		for _, f := range n.Fanin {
			if f == n.ID {
				return fmt.Errorf("circuit %q: node %q drives itself", c.Name, n.Name)
			}
			if seen[f] && n.Kind != Branch {
				return fmt.Errorf("circuit %q: node %q lists fanin %q twice", c.Name, n.Name, c.Nodes[f].Name)
			}
			seen[f] = true
			c.Nodes[f].Fanout = append(c.Nodes[f].Fanout, n.ID)
			indeg[n.ID]++
		}
	}

	// Kahn's algorithm; stable by node ID for deterministic ordering.
	queue := make([]int, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		if indeg[n.ID] == 0 {
			queue = append(queue, n.ID)
		}
	}
	sort.Ints(queue)
	order := make([]int, 0, len(c.Nodes))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		n := c.Nodes[id]
		lvl := 0
		for _, f := range n.Fanin {
			if l := c.Nodes[f].Level + 1; l > lvl {
				lvl = l
			}
		}
		n.Level = lvl
		for _, t := range n.Fanout {
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	if len(order) != len(c.Nodes) {
		return fmt.Errorf("circuit %q: combinational loop detected", c.Name)
	}
	c.order = order

	// The level order is computed eagerly so concurrent readers (the engine
	// compiles circuits from many goroutines) never race on a lazy cache.
	c.levelOrder = append([]int(nil), order...)
	sort.SliceStable(c.levelOrder, func(a, b int) bool {
		la, lb := c.Nodes[c.levelOrder[a]].Level, c.Nodes[c.levelOrder[b]].Level
		if la != lb {
			return la < lb
		}
		return c.levelOrder[a] < c.levelOrder[b]
	})

	// Every non-output node should drive something; dangling nodes are
	// legal (synthesis can produce unused signals) but outputs must exist.
	for _, o := range c.Outputs {
		if o < 0 || o >= len(c.Nodes) {
			return fmt.Errorf("circuit %q: invalid output id %d", c.Name, o)
		}
	}
	return nil
}

// TransitiveFanin returns the set of node IDs (as a boolean slice indexed by
// ID) that can reach node id, including id itself.
func (c *Circuit) TransitiveFanin(id int) []bool {
	mark := make([]bool, len(c.Nodes))
	var walk func(int)
	walk = func(v int) {
		if mark[v] {
			return
		}
		mark[v] = true
		for _, f := range c.Nodes[v].Fanin {
			walk(f)
		}
	}
	walk(id)
	return mark
}

// TransitiveFanout returns the set of node IDs reachable from node id,
// including id itself.
func (c *Circuit) TransitiveFanout(id int) []bool {
	mark := make([]bool, len(c.Nodes))
	var walk func(int)
	walk = func(v int) {
		if mark[v] {
			return
		}
		mark[v] = true
		for _, t := range c.Nodes[v].Fanout {
			walk(t)
		}
	}
	walk(id)
	return mark
}

// Stats summarizes circuit structure.
type Stats struct {
	Inputs, Outputs         int
	Gates, Branches         int
	Nodes                   int
	MaxLevel                int
	MultiInputGates         int
	VectorSpaceSize         int
	GateKindCounts          map[Kind]int
	MaxFanin, AvgFaninNumer int
}

// ComputeStats returns structural statistics for the circuit.
func (c *Circuit) ComputeStats() Stats {
	s := Stats{
		Inputs:          len(c.Inputs),
		Outputs:         len(c.Outputs),
		Nodes:           len(c.Nodes),
		MaxLevel:        c.MaxLevel(),
		VectorSpaceSize: c.VectorSpaceSize(),
		GateKindCounts:  make(map[Kind]int),
	}
	for _, n := range c.Nodes {
		switch {
		case n.Kind == Branch:
			s.Branches++
		case n.IsGateOutput():
			s.Gates++
			s.GateKindCounts[n.Kind]++
			if len(n.Fanin) > s.MaxFanin {
				s.MaxFanin = len(n.Fanin)
			}
			s.AvgFaninNumer += len(n.Fanin)
			if len(n.Fanin) >= 2 {
				s.MultiInputGates++
			}
		}
	}
	return s
}

// String renders a one-line summary. Circuits too wide for |U| to fit an
// int (VectorSpaceSize 0 — the partition package's territory) render it
// symbolically.
func (s Stats) String() string {
	u := fmt.Sprint(s.VectorSpaceSize)
	if s.VectorSpaceSize == 0 {
		u = fmt.Sprintf("2^%d", s.Inputs)
	}
	return fmt.Sprintf("in=%d out=%d gates=%d (multi-input %d) branches=%d depth=%d |U|=%s",
		s.Inputs, s.Outputs, s.Gates, s.MultiInputGates, s.Branches, s.MaxLevel, u)
}
