package encode

import (
	"testing"

	"ndetect/internal/kiss"
)

func machine(t *testing.T, states int) *kiss.STG {
	t.Helper()
	src := ".i 1\n.o 1\n"
	// A ring counter over the requested number of states.
	for i := 0; i < states; i++ {
		next := (i + 1) % states
		src += "1 s" + itoa(i) + " s" + itoa(next) + " 1\n"
		src += "0 s" + itoa(i) + " s" + itoa(i) + " 0\n"
	}
	m, err := kiss.ParseString("ring", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return m
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestBinary(t *testing.T) {
	m := machine(t, 5)
	e, err := New(Binary, m)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if e.Bits != 3 {
		t.Fatalf("Bits = %d, want 3", e.Bits)
	}
	for i := 0; i < 5; i++ {
		if e.Codes[i] != uint64(i) {
			t.Fatalf("Codes[%d] = %d", i, e.Codes[i])
		}
	}
	if got := e.CodeString(5 - 1); got != "100" {
		t.Fatalf("CodeString(4) = %q, want 100", got)
	}
	if got := e.CodeString(1); got != "001" {
		t.Fatalf("CodeString(1) = %q, want 001", got)
	}
}

func TestGrayAdjacency(t *testing.T) {
	m := machine(t, 8)
	e, err := New(Gray, m)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if e.Bits != 3 {
		t.Fatalf("Bits = %d, want 3", e.Bits)
	}
	for i := 1; i < 8; i++ {
		diff := e.Codes[i] ^ e.Codes[i-1]
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("codes %d and %d differ in more than one bit", i-1, i)
		}
	}
}

func TestOneHot(t *testing.T) {
	m := machine(t, 5)
	e, err := New(OneHot, m)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if e.Bits != 5 {
		t.Fatalf("Bits = %d, want 5", e.Bits)
	}
	for i := 0; i < 5; i++ {
		if e.Codes[i] != 1<<uint(i) {
			t.Fatalf("Codes[%d] = %b", i, e.Codes[i])
		}
	}
}

func TestCodesDistinct(t *testing.T) {
	m := machine(t, 7)
	for _, style := range []string{Binary, Gray, OneHot} {
		e, err := New(style, m)
		if err != nil {
			t.Fatalf("New(%s): %v", style, err)
		}
		seen := make(map[uint64]bool)
		for i, c := range e.Codes {
			if seen[c] {
				t.Fatalf("%s: duplicate code for state %d", style, i)
			}
			seen[c] = true
		}
	}
}

func TestUnknownStyle(t *testing.T) {
	m := machine(t, 3)
	if _, err := New("zigzag", m); err == nil {
		t.Fatal("New accepted unknown style")
	}
}

func TestCodeBitMatchesCodeString(t *testing.T) {
	m := machine(t, 6)
	e, _ := New(Binary, m)
	for s := 0; s < 6; s++ {
		str := e.CodeString(s)
		for pos := 0; pos < e.Bits; pos++ {
			want := str[pos] == '1'
			if got := e.CodeBit(s, e.Bits-1-pos); got != want {
				t.Fatalf("state %d pos %d: CodeBit=%v, CodeString=%q", s, pos, got, str)
			}
		}
	}
}

func TestSingleStateMachineHasOneBit(t *testing.T) {
	m, err := kiss.ParseString("one", ".i 1\n.o 1\n- a a 1\n.e\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	e, err := New(Binary, m)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if e.Bits != 1 {
		t.Fatalf("Bits = %d, want 1", e.Bits)
	}
}
