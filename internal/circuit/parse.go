package circuit

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The text netlist format accepted by Parse:
//
//	# comment
//	circuit adder
//	input a b cin
//	output sum cout
//	gate xor t1 a b
//	gate xor sum t1 cin
//	gate and t2 a b
//	gate and t3 t1 cin
//	gate or cout t2 t3
//	const zero 0
//
// Lines are independent statements; "gate KIND OUT IN..." declares a gate.
// Signals must be declared before use. Branch nodes are never written — they
// are a structural artifact recreated by Build.

// Parse reads a circuit in the text netlist format.
func Parse(r io.Reader) (*Circuit, error) {
	var b *Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024) // grows on demand; lines up to 1 MiB
	lineNo := 0
	outputs := []string{}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "circuit":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: circuit takes one name", lineNo)
			}
			if b != nil {
				return nil, fmt.Errorf("line %d: duplicate circuit statement", lineNo)
			}
			b = NewBuilder(fields[1])
		case "input":
			if b == nil {
				return nil, fmt.Errorf("line %d: statement before circuit", lineNo)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: input needs at least one name", lineNo)
			}
			for _, n := range fields[1:] {
				b.Input(n)
			}
		case "output":
			if b == nil {
				return nil, fmt.Errorf("line %d: statement before circuit", lineNo)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: output needs at least one name", lineNo)
			}
			outputs = append(outputs, fields[1:]...)
		case "gate":
			if b == nil {
				return nil, fmt.Errorf("line %d: statement before circuit", lineNo)
			}
			if len(fields) < 4 {
				return nil, fmt.Errorf("line %d: gate needs KIND OUT IN...", lineNo)
			}
			kind, ok := KindFromString(fields[1])
			if !ok {
				return nil, fmt.Errorf("line %d: unknown gate kind %q", lineNo, fields[1])
			}
			b.Gate(kind, fields[2], fields[3:]...)
		case "const":
			if b == nil {
				return nil, fmt.Errorf("line %d: statement before circuit", lineNo)
			}
			if len(fields) != 3 || (fields[2] != "0" && fields[2] != "1") {
				return nil, fmt.Errorf("line %d: const needs NAME 0|1", lineNo)
			}
			b.Const(fields[1], fields[2] == "1")
		default:
			return nil, fmt.Errorf("line %d: unknown statement %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("empty netlist: no circuit statement")
	}
	for _, o := range outputs {
		b.Output(o)
	}
	return b.Build()
}

// ParseString is Parse over a string.
func ParseString(s string) (*Circuit, error) {
	return Parse(strings.NewReader(s))
}

// Write serializes the circuit in the text netlist format. Branch nodes are
// elided: gate fanins are written in terms of their stems, so that parsing
// the output reconstructs an isomorphic circuit.
func (c *Circuit) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "circuit %s\n", c.Name)

	stemName := func(id int) string {
		n := c.Nodes[id]
		for n.Kind == Branch {
			n = c.Nodes[n.Stem]
		}
		return n.Name
	}

	names := make([]string, 0, len(c.Inputs))
	for _, id := range c.Inputs {
		names = append(names, c.Nodes[id].Name)
	}
	fmt.Fprintf(bw, "input %s\n", strings.Join(names, " "))

	names = names[:0]
	for _, id := range c.Outputs {
		names = append(names, stemName(id))
	}
	fmt.Fprintf(bw, "output %s\n", strings.Join(names, " "))

	for _, id := range c.order {
		n := c.Nodes[id]
		switch n.Kind {
		case Input, Branch:
			continue
		case Const0:
			fmt.Fprintf(bw, "const %s 0\n", n.Name)
		case Const1:
			fmt.Fprintf(bw, "const %s 1\n", n.Name)
		default:
			fins := make([]string, len(n.Fanin))
			for i, f := range n.Fanin {
				fins[i] = stemName(f)
			}
			fmt.Fprintf(bw, "gate %s %s %s\n", n.Kind, n.Name, strings.Join(fins, " "))
		}
	}
	return bw.Flush()
}

// WriteString serializes the circuit to a string.
func (c *Circuit) WriteString() string {
	var sb strings.Builder
	if err := c.Write(&sb); err != nil {
		// strings.Builder never errors; keep the signature honest anyway.
		panic(err)
	}
	return sb.String()
}
