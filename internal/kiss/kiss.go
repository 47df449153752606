// Package kiss parses and models KISS2 state-transition-graph (STG)
// descriptions, the format of the MCNC finite-state-machine benchmarks that
// the paper's evaluation is based on.
//
// A KISS2 file looks like:
//
//	.i 2
//	.o 1
//	.s 4
//	.p 11
//	.r st0
//	00 st0 st0 0
//	-1 st0 st1 0
//	...
//	.e
//
// Each transition line is: input-cube current-state next-state output-cube,
// where cubes are strings over {0,1,-}.
package kiss

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Transition is one edge of the STG.
type Transition struct {
	Input  string // cube over {0,1,-}, length = STG.NumInputs
	From   string // symbolic present state ("*" matches any state in some dialects; expanded by Parse)
	To     string
	Output string // cube over {0,1,-}, length = STG.NumOutputs
}

// STG is a symbolic finite-state machine.
type STG struct {
	Name        string
	NumInputs   int
	NumOutputs  int
	States      []string // in order of first appearance; Reset first if declared
	Reset       string
	Transitions []Transition

	stateIndex map[string]int
}

// NumStates returns the number of symbolic states.
func (m *STG) NumStates() int { return len(m.States) }

// StateBits returns the number of bits of a minimal binary state encoding.
func (m *STG) StateBits() int {
	b := 0
	for (1 << uint(b)) < len(m.States) {
		b++
	}
	if b == 0 {
		b = 1 // a 1-state machine still needs one state line
	}
	return b
}

// StateIndex returns the index of a state name.
func (m *STG) StateIndex(name string) (int, bool) {
	i, ok := m.stateIndex[name]
	return i, ok
}

// addState registers a state name on first sight.
func (m *STG) addState(name string) {
	if m.stateIndex == nil {
		m.stateIndex = make(map[string]int)
	}
	if _, ok := m.stateIndex[name]; !ok {
		m.stateIndex[name] = len(m.States)
		m.States = append(m.States, name)
	}
}

func validCube(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r != '0' && r != '1' && r != '-' {
			return false
		}
	}
	return true
}

// Parse reads a KISS2 STG. The name is attached to the result (KISS2 has no
// in-band name).
func Parse(name string, r io.Reader) (*STG, error) {
	m := &STG{Name: name, NumInputs: -1, NumOutputs: -1}
	declStates, declTerms := -1, -1
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024) // grows on demand; lines up to 1 MiB
	lineNo := 0
	ended := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if ended {
			return nil, fmt.Errorf("%s:%d: content after .e", name, lineNo)
		}
		if strings.HasPrefix(line, ".") {
			fields := strings.Fields(line)
			switch fields[0] {
			case ".i", ".o", ".s", ".p":
				if len(fields) != 2 {
					return nil, fmt.Errorf("%s:%d: %s takes one integer", name, lineNo, fields[0])
				}
				v, err := strconv.Atoi(fields[1])
				if err != nil || v < 0 {
					return nil, fmt.Errorf("%s:%d: bad %s value %q", name, lineNo, fields[0], fields[1])
				}
				switch fields[0] {
				case ".i":
					m.NumInputs = v
				case ".o":
					m.NumOutputs = v
				case ".s":
					declStates = v
				case ".p":
					declTerms = v
				}
			case ".r":
				if len(fields) != 2 {
					return nil, fmt.Errorf("%s:%d: .r takes one state name", name, lineNo)
				}
				m.Reset = fields[1]
				m.addState(m.Reset)
			case ".e", ".end":
				ended = true
			case ".ilb", ".ob", ".latch", ".code":
				// Signal-name and encoding hints; irrelevant to the STG.
			default:
				return nil, fmt.Errorf("%s:%d: unknown directive %q", name, lineNo, fields[0])
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("%s:%d: transition needs 4 fields, got %d", name, lineNo, len(fields))
		}
		tr := Transition{Input: fields[0], From: fields[1], To: fields[2], Output: fields[3]}
		if m.NumInputs < 0 || m.NumOutputs < 0 {
			return nil, fmt.Errorf("%s:%d: transition before .i/.o", name, lineNo)
		}
		if !validCube(tr.Input) && !(m.NumInputs == 0 && tr.Input == "") {
			return nil, fmt.Errorf("%s:%d: bad input cube %q", name, lineNo, tr.Input)
		}
		if len(tr.Input) != m.NumInputs {
			return nil, fmt.Errorf("%s:%d: input cube %q length %d, want %d", name, lineNo, tr.Input, len(tr.Input), m.NumInputs)
		}
		if !validCube(tr.Output) {
			return nil, fmt.Errorf("%s:%d: bad output cube %q", name, lineNo, tr.Output)
		}
		if len(tr.Output) != m.NumOutputs {
			return nil, fmt.Errorf("%s:%d: output cube %q length %d, want %d", name, lineNo, tr.Output, len(tr.Output), m.NumOutputs)
		}
		if tr.From != "*" {
			m.addState(tr.From)
		}
		if tr.To != "*" && tr.To != "-" {
			m.addState(tr.To)
		}
		m.Transitions = append(m.Transitions, tr)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m.NumInputs < 0 || m.NumOutputs < 0 {
		return nil, fmt.Errorf("%s: missing .i/.o", name)
	}
	if len(m.Transitions) == 0 {
		return nil, fmt.Errorf("%s: no transitions", name)
	}
	if declStates >= 0 && declStates != len(m.States) {
		return nil, fmt.Errorf("%s: .s declares %d states, found %d", name, declStates, len(m.States))
	}
	if declTerms >= 0 && declTerms != len(m.Transitions) {
		return nil, fmt.Errorf("%s: .p declares %d terms, found %d", name, declTerms, len(m.Transitions))
	}
	if m.Reset == "" {
		m.Reset = m.States[0]
	}
	m.expandWildcards()
	return m, nil
}

// ParseString is Parse over a string.
func ParseString(name, s string) (*STG, error) {
	return Parse(name, strings.NewReader(s))
}

// expandWildcards replaces From="*" transitions (any-state edges used by a
// few MCNC machines) with one copy per state, and To="-"/"*" (don't-care next
// state) with self-loops, keeping the machine fully symbolic.
func (m *STG) expandWildcards() {
	out := make([]Transition, 0, len(m.Transitions))
	for _, tr := range m.Transitions {
		froms := []string{tr.From}
		if tr.From == "*" {
			froms = m.States
		}
		for _, f := range froms {
			t := tr
			t.From = f
			if t.To == "*" || t.To == "-" {
				t.To = f
			}
			out = append(out, t)
		}
	}
	m.Transitions = out
}

// cubesOverlap reports whether two input cubes can match the same vector.
func cubesOverlap(a, b string) bool {
	for i := range a {
		if a[i] != '-' && b[i] != '-' && a[i] != b[i] {
			return false
		}
	}
	return true
}

// CheckDeterministic verifies that no two transitions from the same state
// have overlapping input cubes with conflicting next state or conflicting
// specified output bits. MCNC machines and the synthetic surrogates are
// deterministic; a violation indicates a corrupted source. States are
// checked in machine order, so the error names the first bad state.
func (m *STG) CheckDeterministic() error {
	byState := make(map[string][]Transition)
	for _, tr := range m.Transitions {
		byState[tr.From] = append(byState[tr.From], tr)
	}
	for _, st := range m.States {
		trs := byState[st]
		for i := 0; i < len(trs); i++ {
			for j := i + 1; j < len(trs); j++ {
				if !cubesOverlap(trs[i].Input, trs[j].Input) {
					continue
				}
				if trs[i].To != trs[j].To {
					return fmt.Errorf("%s: state %s: cubes %s and %s overlap with different next states %s vs %s",
						m.Name, st, trs[i].Input, trs[j].Input, trs[i].To, trs[j].To)
				}
				for k := 0; k < m.NumOutputs; k++ {
					a, b := trs[i].Output[k], trs[j].Output[k]
					if a != '-' && b != '-' && a != b {
						return fmt.Errorf("%s: state %s: cubes %s and %s overlap with conflicting output bit %d",
							m.Name, st, trs[i].Input, trs[j].Input, k)
					}
				}
			}
		}
	}
	return nil
}

// CheckComplete reports, per state, whether the input cubes cover all 2^i
// input combinations. The paper's analysis does not require completeness
// (uncovered combinations synthesize to "next state 0 / outputs 0"), but the
// information is useful diagnostics. It returns the total number of
// (state, input vector) pairs left unspecified.
func (m *STG) CheckComplete() int {
	if m.NumInputs > 20 {
		return -1 // too large to enumerate; not a benchmark-scale machine
	}
	unspecified := 0
	size := 1 << uint(m.NumInputs)
	byState := make(map[string][]Transition)
	for _, tr := range m.Transitions {
		byState[tr.From] = append(byState[tr.From], tr)
	}
	for _, st := range m.States {
		for v := 0; v < size; v++ {
			covered := false
			for _, tr := range byState[st] {
				if cubeMatches(tr.Input, v, m.NumInputs) {
					covered = true
					break
				}
			}
			if !covered {
				unspecified++
			}
		}
	}
	return unspecified
}

// cubeMatches reports whether the cube matches input vector v (MSB-first:
// cube[0] is the first input, matching circuit.VectorBit).
func cubeMatches(cube string, v, n int) bool {
	for i := 0; i < n; i++ {
		bit := (v >> uint(n-1-i)) & 1
		switch cube[i] {
		case '0':
			if bit != 0 {
				return false
			}
		case '1':
			if bit != 1 {
				return false
			}
		}
	}
	return true
}

// Simulate runs the symbolic machine for one step: given a state and a fully
// specified input vector, it returns the next state and output bits ('-'
// output bits resolve to 0, matching the synthesis convention). The boolean
// result reports whether any transition matched; on no match the machine
// stays and outputs zeros (again matching synthesis, which sends unspecified
// entries to next-state-code 0 — see synth). Simulate is used by tests to
// cross-check synthesized logic against the symbolic STG.
func (m *STG) Simulate(state string, v int) (next string, outputs []bool, matched bool) {
	outputs = make([]bool, m.NumOutputs)
	for _, tr := range m.Transitions {
		if tr.From != state {
			continue
		}
		if !cubeMatches(tr.Input, v, m.NumInputs) {
			continue
		}
		for k := 0; k < m.NumOutputs; k++ {
			outputs[k] = tr.Output[k] == '1'
		}
		return tr.To, outputs, true
	}
	return state, outputs, false
}
