package kiss

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"
)

// Write serializes the STG in KISS2 format. It lives with the tests, which
// round-trip machines through text; the scanner tests in package kiss_test
// use it too.
func (m *STG) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".i %d\n.o %d\n.p %d\n.s %d\n.r %s\n",
		m.NumInputs, m.NumOutputs, len(m.Transitions), len(m.States), m.Reset)
	for _, tr := range m.Transitions {
		in := tr.Input
		if in == "" {
			in = "-"
		}
		fmt.Fprintf(bw, "%s %s %s %s\n", in, tr.From, tr.To, tr.Output)
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}

const lionSrc = `
# a 4-state, 2-input machine in the style of the 'lion' benchmark
.i 2
.o 1
.s 4
.p 11
.r st0
00 st0 st0 0
01 st0 st1 0
11 st0 st0 0
11 st1 st1 0
01 st1 st2 1
10 st1 st0 0
1- st2 st2 1
00 st2 st3 1
01 st3 st3 1
00 st3 st0 1
10 st3 st2 1
`

func parseLion(t *testing.T) *STG {
	t.Helper()
	m, err := ParseString("lion", lionSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return m
}

func TestParseBasics(t *testing.T) {
	m := parseLion(t)
	if m.NumInputs != 2 || m.NumOutputs != 1 {
		t.Fatalf("i=%d o=%d", m.NumInputs, m.NumOutputs)
	}
	if m.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", m.NumStates())
	}
	if m.Reset != "st0" {
		t.Fatalf("reset = %q", m.Reset)
	}
	if len(m.Transitions) != 11 {
		t.Fatalf("transitions = %d, want 11", len(m.Transitions))
	}
	if m.StateBits() != 2 {
		t.Fatalf("StateBits = %d, want 2", m.StateBits())
	}
	if i, ok := m.StateIndex("st0"); !ok || i != 0 {
		t.Fatalf("StateIndex(st0) = %d,%v", i, ok)
	}
}

func TestParseDefaultsResetToFirstState(t *testing.T) {
	m, err := ParseString("x", ".i 1\n.o 1\n0 a b 1\n1 a a 0\n.e\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.Reset != "a" {
		t.Fatalf("reset = %q, want a", m.Reset)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"no io":             "0 a b 1\n",
		"bad input cube":    ".i 2\n.o 1\n2- a b 1\n",
		"input cube len":    ".i 2\n.o 1\n0 a b 1\n",
		"output cube len":   ".i 1\n.o 2\n0 a b 1\n",
		"bad directive":     ".i 1\n.o 1\n.frob 3\n0 a b 1\n",
		"wrong state count": ".i 1\n.o 1\n.s 5\n0 a b 1\n1 a a 0\n",
		"wrong term count":  ".i 1\n.o 1\n.p 9\n0 a b 1\n",
		"short transition":  ".i 1\n.o 1\n0 a b\n",
		"after .e":          ".i 1\n.o 1\n0 a b 1\n.e\n0 b a 1\n",
		"no transitions":    ".i 1\n.o 1\n.e\n",
		"bad .i":            ".i x\n.o 1\n0 a b 1\n",
	}
	for name, src := range bad {
		if _, err := ParseString(name, src); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

func TestWildcardExpansion(t *testing.T) {
	src := ".i 1\n.o 1\n.r a\n0 a b 0\n0 b a 0\n1 * - 1\n.e\n"
	m, err := ParseString("w", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// "1 * - 1" expands to a self-loop per state.
	var selfLoops int
	for _, tr := range m.Transitions {
		if tr.Input == "1" {
			if tr.To != tr.From {
				t.Fatalf("wildcard expansion produced %v, want self-loop", tr)
			}
			selfLoops++
		}
	}
	if selfLoops != 2 {
		t.Fatalf("self loops = %d, want 2", selfLoops)
	}
}

func TestCheckDeterministic(t *testing.T) {
	if err := parseLion(t).CheckDeterministic(); err != nil {
		t.Fatalf("lion should be deterministic: %v", err)
	}
	m, err := ParseString("nd", ".i 1\n.o 1\n0 a b 0\n0 a c 0\n.e\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := m.CheckDeterministic(); err == nil {
		t.Fatal("conflicting next states not detected")
	}
	m2, err := ParseString("nd2", ".i 1\n.o 1\n- a a 0\n0 a a 1\n.e\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := m2.CheckDeterministic(); err == nil {
		t.Fatal("conflicting outputs not detected")
	}
}

// TestCheckDeterministicNamesFirstState: with several bad states, the
// error names the first one in machine order, on every call.
func TestCheckDeterministicNamesFirstState(t *testing.T) {
	var src strings.Builder
	src.WriteString(".i 1\n.o 1\n")
	for _, st := range []string{"a", "b", "c", "d", "e"} {
		fmt.Fprintf(&src, "0 %s a 0\n0 %s b 0\n", st, st)
	}
	m, err := ParseString("nd5", src.String()+".e\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for call := 0; call < 20; call++ {
		err := m.CheckDeterministic()
		if err == nil || !strings.Contains(err.Error(), "state a:") {
			t.Fatalf("call %d: %v, want an error naming state a", call, err)
		}
	}
}

func TestCheckComplete(t *testing.T) {
	m := parseLion(t)
	// Uncovered (state, vector) pairs: st0/10, st1/00, st2/01, st3/11.
	if got := m.CheckComplete(); got != 4 {
		t.Fatalf("CheckComplete = %d, want 4", got)
	}
}

func TestSimulate(t *testing.T) {
	m := parseLion(t)
	// From st0 under input 01 (v=1): "-1 st0 st1 0" matches → st1, out 0.
	next, outs, ok := m.Simulate("st0", 1)
	if !ok || next != "st1" || outs[0] {
		t.Fatalf("Simulate(st0,01) = %s,%v,%v", next, outs, ok)
	}
	// From st1 under 01: "01 st1 st2 1" → st2, out 1.
	next, outs, ok = m.Simulate("st1", 1)
	if !ok || next != "st2" || !outs[0] {
		t.Fatalf("Simulate(st1,01) = %s,%v,%v", next, outs, ok)
	}
	// st0 under 10 (v=2) is unspecified: stays, outputs zero, ok=false.
	next, outs, ok = m.Simulate("st0", 2)
	if ok || next != "st0" || outs[0] {
		t.Fatalf("Simulate(st0,10) = %s,%v,%v", next, outs, ok)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	m := parseLion(t)
	var sb strings.Builder
	if err := m.Write(&sb); err != nil {
		t.Fatalf("Write: %v", err)
	}
	m2, err := ParseString("lion", sb.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if m2.NumInputs != m.NumInputs || m2.NumOutputs != m.NumOutputs ||
		m2.NumStates() != m.NumStates() || len(m2.Transitions) != len(m.Transitions) ||
		m2.Reset != m.Reset {
		t.Fatal("round trip changed the machine shape")
	}
	// Behavioural equivalence state by state, vector by vector.
	for _, st := range m.States {
		for v := 0; v < 4; v++ {
			n1, o1, _ := m.Simulate(st, v)
			n2, o2, _ := m2.Simulate(st, v)
			if n1 != n2 || o1[0] != o2[0] {
				t.Fatalf("round trip changed behaviour at state %s, v=%d", st, v)
			}
		}
	}
}

func TestCubeMatches(t *testing.T) {
	// cube "1-0" over 3 inputs, MSB-first: input0=1, input2=0.
	cases := []struct {
		v    int
		want bool
	}{
		{0b100, true}, {0b110, true}, {0b101, false}, {0b000, false}, {0b111, false},
	}
	for _, c := range cases {
		if got := cubeMatches("1-0", c.v, 3); got != c.want {
			t.Errorf("cubeMatches(1-0, %03b) = %v, want %v", c.v, got, c.want)
		}
	}
}
