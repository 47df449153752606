// Command kiss2net synthesizes a KISS2 finite-state machine into the
// combinational gate-level netlist the analysis runs on (next-state and
// output logic with present-state lines exposed as inputs), and writes it
// in the text netlist format. It can also emit Graphviz DOT and print
// structural statistics.
//
// Usage:
//
//	kiss2net [-encoding binary|gray|one-hot] [-two-level] [-maxfanin N]
//	         [-o out.net] [-dot out.dot] [-stats] machine.kiss2
//
// With "-" as the file, the machine is read from stdin.
package main

import (
	"flag"
	"fmt"
	"os"

	"ndetect/internal/kiss"
	"ndetect/internal/synth"
)

func main() {
	var (
		encF   = flag.String("encoding", "binary", "state encoding: binary, gray, one-hot")
		twoF   = flag.Bool("two-level", false, "two-level PLA mapping instead of multi-level")
		mfF    = flag.Int("maxfanin", 4, "fanin cap for multi-level mapping")
		outF   = flag.String("o", "", "output netlist file (default stdout)")
		dotF   = flag.String("dot", "", "also write Graphviz DOT to this file")
		statsF = flag.Bool("stats", false, "print structural statistics to stderr")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: kiss2net [flags] machine.kiss2  (see -h)")
		os.Exit(2)
	}

	path := flag.Arg(0)
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	m, err := kiss.Parse(path, in)
	if err != nil {
		fail(err)
	}

	r, err := synth.Synthesize(m, synth.Options{
		EncodingStyle: *encF,
		MultiLevel:    !*twoF,
		MaxFanin:      *mfF,
	})
	if err != nil {
		fail(err)
	}

	out := os.Stdout
	if *outF != "" {
		f, err := os.Create(*outF)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		out = f
	}
	if err := r.Circuit.Write(out); err != nil {
		fail(err)
	}

	if *dotF != "" {
		f, err := os.Create(*dotF)
		if err != nil {
			fail(err)
		}
		if err := r.Circuit.WriteDOT(f); err != nil {
			fail(err)
		}
		f.Close()
	}
	if *statsF {
		fmt.Fprintf(os.Stderr, "%s: %d states (%d bits, %s encoding), %s\n",
			m.Name, m.NumStates(), r.StateBits, *encF, r.Circuit.ComputeStats())
		if un := m.CheckComplete(); un > 0 {
			fmt.Fprintf(os.Stderr, "%s: %d unspecified (state, input) pairs synthesize to 0\n", m.Name, un)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "kiss2net:", err)
	os.Exit(1)
}
