// Package encode assigns binary codes to the symbolic states of an STG.
//
// The paper analyses "the combinational logic of MCNC finite-state machine
// benchmarks": the FSM's next-state and output logic with present-state bits
// exposed as extra primary inputs. The state encoding determines how many
// extra inputs appear and shapes the synthesized logic, so it is a named,
// swappable strategy here (the ablation bench compares them).
package encode

import (
	"fmt"

	"ndetect/internal/kiss"
)

// Encoding maps each state (by STG state index) to a code of Bits bits.
type Encoding struct {
	Style string
	Bits  int
	Codes []uint64 // Codes[i] is the code of state i; bit b of the code is state line b (LSB = line 0)
}

// Style names accepted by New.
const (
	Binary = "binary"  // minimal-width natural binary in state order
	Gray   = "gray"    // minimal-width reflected Gray code in state order
	OneHot = "one-hot" // one bit per state
)

// New builds an encoding of the given style for the machine.
func New(style string, m *kiss.STG) (*Encoding, error) {
	n := m.NumStates()
	switch style {
	case Binary:
		e := &Encoding{Style: style, Bits: m.StateBits(), Codes: make([]uint64, n)}
		for i := 0; i < n; i++ {
			e.Codes[i] = uint64(i)
		}
		return e, nil
	case Gray:
		e := &Encoding{Style: style, Bits: m.StateBits(), Codes: make([]uint64, n)}
		for i := 0; i < n; i++ {
			e.Codes[i] = uint64(i) ^ (uint64(i) >> 1)
		}
		return e, nil
	case OneHot:
		e := &Encoding{Style: style, Bits: n, Codes: make([]uint64, n)}
		for i := 0; i < n; i++ {
			e.Codes[i] = 1 << uint(i)
		}
		return e, nil
	default:
		return nil, fmt.Errorf("encode: unknown style %q", style)
	}
}

// CodeBit returns bit b of state i's code.
func (e *Encoding) CodeBit(state, b int) bool {
	return (e.Codes[state]>>uint(b))&1 == 1
}

// CodeString renders state i's code MSB-first (bit Bits-1 first), the order
// in which state lines appear as synthesized circuit inputs.
func (e *Encoding) CodeString(state int) string {
	buf := make([]byte, e.Bits)
	for b := 0; b < e.Bits; b++ {
		if e.CodeBit(state, e.Bits-1-b) {
			buf[b] = '1'
		} else {
			buf[b] = '0'
		}
	}
	return string(buf)
}
