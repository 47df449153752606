package synth

import (
	"fmt"
	"strings"
	"testing"

	"ndetect/internal/encode"
	"ndetect/internal/kiss"
)

const ringSrc = `
.i 2
.o 2
.r a
00 a a 00
01 a b 01
10 a c 10
11 a a 11
0- b c 01
1- b a 10
-- c a 00
.e
`

func parseRing(t *testing.T) *kiss.STG {
	t.Helper()
	m, err := kiss.ParseString("ring", ringSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return m
}

// checkAgainstSTG exhaustively compares the synthesized circuit with the
// symbolic machine: for every state and every input vector, the circuit's
// output bits must equal the STG outputs and the next-state bits must encode
// the STG next state.
func checkAgainstSTG(t *testing.T, r *Result) {
	t.Helper()
	m, enc, c := r.STG, r.Encoding, r.Circuit
	for si, st := range m.States {
		for v := 0; v < 1<<uint(m.NumInputs); v++ {
			// Assemble the circuit vector: PI bits (MSB-first) then state
			// code bits (MSB-first).
			vec := uint64(v)<<uint(enc.Bits) | pickCode(enc, si)
			outs := c.OutputsOf(c.Eval(vec))

			wantNext, wantOuts, _ := m.Simulate(st, v)
			for k := 0; k < m.NumOutputs; k++ {
				if outs[k] != wantOuts[k] {
					t.Fatalf("state %s v=%d: output %d = %v, want %v", st, v, k, outs[k], wantOuts[k])
				}
			}
			// Decode next state bits (outputs NumPOs.. are MSB-first).
			var code uint64
			for b := 0; b < enc.Bits; b++ {
				if outs[m.NumOutputs+b] {
					code |= 1 << uint(enc.Bits-1-b)
				}
			}
			ni, ok := m.StateIndex(wantNext)
			if !ok {
				t.Fatalf("unknown next state %q", wantNext)
			}
			_, _, matched := m.Simulate(st, v)
			if matched {
				if code != enc.Codes[ni] {
					t.Fatalf("state %s v=%d: next code = %b, want %b (%s)", st, v, code, enc.Codes[ni], wantNext)
				}
			} else if code != 0 {
				// Unspecified entries synthesize to next-state code 0.
				t.Fatalf("state %s v=%d: unspecified entry gave next code %b, want 0", st, v, code)
			}
		}
	}
}

func pickCode(e *encode.Encoding, state int) uint64 { return e.Codes[state] }

func TestSynthesizeMatchesSTG(t *testing.T) {
	for _, style := range []string{encode.Binary, encode.Gray} {
		r, err := Synthesize(parseRing(t), Options{EncodingStyle: style})
		if err != nil {
			t.Fatalf("Synthesize(%s): %v", style, err)
		}
		checkAgainstSTG(t, r)
	}
}

func TestSynthesizeOneHotMatchesSTG(t *testing.T) {
	r, err := Synthesize(parseRing(t), Options{EncodingStyle: encode.OneHot})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	checkAgainstSTG(t, r)
}

func TestResultShape(t *testing.T) {
	r, err := Synthesize(parseRing(t), Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if r.NumPIs != 2 || r.StateBits != 2 || r.NumPOs != 2 {
		t.Fatalf("shape: PIs=%d StateBits=%d POs=%d", r.NumPIs, r.StateBits, r.NumPOs)
	}
	if r.Circuit.NumInputs() != 4 {
		t.Fatalf("circuit inputs = %d, want 4", r.Circuit.NumInputs())
	}
	if r.Circuit.NumOutputs() != 4 {
		t.Fatalf("circuit outputs = %d, want 4", r.Circuit.NumOutputs())
	}
	// Input names follow the x*/s* convention.
	in0 := r.Circuit.Node(r.Circuit.Inputs[0])
	in2 := r.Circuit.Node(r.Circuit.Inputs[2])
	if in0.Name != "x0" || in2.Name != "s0" {
		t.Fatalf("input names %q,%q, want x0,s0", in0.Name, in2.Name)
	}
}

// TestSynthesizeTooWideRejected: synthesis has no input cap of its own —
// the exhaustive analysis enforces its limit, and wider circuits partition
// — so a 25-input machine synthesizes; only cubes over 64 variables are
// too wide.
func TestSynthesizeTooWideRejected(t *testing.T) {
	wide := func(inputs int) *kiss.STG {
		t.Helper()
		m, err := kiss.ParseString("wide", fmt.Sprintf(".i %d\n.o 1\n%s a a 1\n.e\n", inputs, strings.Repeat("-", inputs)))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		return m
	}
	r, err := Synthesize(wide(25), Options{})
	if err != nil {
		t.Fatalf("Synthesize refused a 25-input machine: %v", err)
	}
	if r.Circuit.NumInputs() != 26 {
		t.Fatalf("circuit inputs = %d, want 26", r.Circuit.NumInputs())
	}
	if _, err := Synthesize(wide(64), Options{}); err == nil {
		t.Fatal("Synthesize accepted a 65-variable machine")
	}
}

func TestConstantFunctions(t *testing.T) {
	// Output 0 is never 1 (const 0); output 1 is always 1 (tautology after
	// reduction of "- a a" covering everything with one state).
	m, err := kiss.ParseString("consts", ".i 1\n.o 2\n- a a 01\n.e\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	r, err := Synthesize(m, Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	for v := uint64(0); v < 1<<uint(r.TotalInputs()); v++ {
		outs := r.Circuit.OutputsOf(r.Circuit.Eval(v))
		if outs[0] {
			t.Fatalf("v=%d: constant-0 output is 1", v)
		}
	}
	// y1 = 1 whenever the state line selects state a (code 0 → s0=0).
	outs := r.Circuit.OutputsOf(r.Circuit.Eval(0))
	if !outs[1] {
		t.Fatal("y1 should be 1 in state a")
	}
}

func TestSynthesizedCircuitHasMultiInputGates(t *testing.T) {
	r, err := Synthesize(parseRing(t), Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if got := r.Circuit.ComputeStats().MultiInputGates; got == 0 {
		t.Fatal("synthesis produced no multi-input gates; bridging fault universe would be empty")
	}
}

func TestSynthesizeMultiLevelMatchesSTG(t *testing.T) {
	for _, mf := range []int{2, 3, 4} {
		r, err := Synthesize(parseRing(t), Options{MultiLevel: true, MaxFanin: mf})
		if err != nil {
			t.Fatalf("Synthesize(ml,%d): %v", mf, err)
		}
		checkAgainstSTG(t, r)
	}
}

func TestMultiLevelRespectsFaninCap(t *testing.T) {
	r, err := Synthesize(parseRing(t), Options{MultiLevel: true, MaxFanin: 3})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if got := r.Circuit.ComputeStats().MaxFanin; got > 3 {
		t.Fatalf("MaxFanin = %d, want ≤ 3", got)
	}
}
