package engine

// Tiled word kernels: every instruction visit at word width moves a
// multi-word tile instead of dispatching per uint64. The tile body converts
// the slice window to an array pointer, so the compiler drops bounds checks
// and can keep the eight lanes in registers; a word-remainder tail handles
// blocks that are not a tile multiple. tileWords is a compile-time constant
// — widening it is a code change, not a knob — and every kernel is a pure
// word-parallel function of its inputs, so results are byte-identical at
// any tile width.

// tileWords is the number of 64-bit words processed per instruction visit.
const tileWords = 8

func fillWords(dst []uint64, v uint64) {
	for w := range dst {
		dst[w] = v
	}
}

func notWords(dst, a []uint64) {
	n := len(dst)
	a = a[:n]
	w := 0
	for ; w+tileWords <= n; w += tileWords {
		d := (*[tileWords]uint64)(dst[w:])
		x := (*[tileWords]uint64)(a[w:])
		for i := range d {
			d[i] = ^x[i]
		}
	}
	for ; w < n; w++ {
		dst[w] = ^a[w]
	}
}

func andWords(dst, a, b []uint64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	w := 0
	for ; w+tileWords <= n; w += tileWords {
		d := (*[tileWords]uint64)(dst[w:])
		x := (*[tileWords]uint64)(a[w:])
		y := (*[tileWords]uint64)(b[w:])
		for i := range d {
			d[i] = x[i] & y[i]
		}
	}
	for ; w < n; w++ {
		dst[w] = a[w] & b[w]
	}
}

func nandWords(dst, a, b []uint64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	w := 0
	for ; w+tileWords <= n; w += tileWords {
		d := (*[tileWords]uint64)(dst[w:])
		x := (*[tileWords]uint64)(a[w:])
		y := (*[tileWords]uint64)(b[w:])
		for i := range d {
			d[i] = ^(x[i] & y[i])
		}
	}
	for ; w < n; w++ {
		dst[w] = ^(a[w] & b[w])
	}
}

func orWords(dst, a, b []uint64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	w := 0
	for ; w+tileWords <= n; w += tileWords {
		d := (*[tileWords]uint64)(dst[w:])
		x := (*[tileWords]uint64)(a[w:])
		y := (*[tileWords]uint64)(b[w:])
		for i := range d {
			d[i] = x[i] | y[i]
		}
	}
	for ; w < n; w++ {
		dst[w] = a[w] | b[w]
	}
}

func norWords(dst, a, b []uint64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	w := 0
	for ; w+tileWords <= n; w += tileWords {
		d := (*[tileWords]uint64)(dst[w:])
		x := (*[tileWords]uint64)(a[w:])
		y := (*[tileWords]uint64)(b[w:])
		for i := range d {
			d[i] = ^(x[i] | y[i])
		}
	}
	for ; w < n; w++ {
		dst[w] = ^(a[w] | b[w])
	}
}

func xorWords(dst, a, b []uint64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	w := 0
	for ; w+tileWords <= n; w += tileWords {
		d := (*[tileWords]uint64)(dst[w:])
		x := (*[tileWords]uint64)(a[w:])
		y := (*[tileWords]uint64)(b[w:])
		for i := range d {
			d[i] = x[i] ^ y[i]
		}
	}
	for ; w < n; w++ {
		dst[w] = a[w] ^ b[w]
	}
}

func xnorWords(dst, a, b []uint64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	w := 0
	for ; w+tileWords <= n; w += tileWords {
		d := (*[tileWords]uint64)(dst[w:])
		x := (*[tileWords]uint64)(a[w:])
		y := (*[tileWords]uint64)(b[w:])
		for i := range d {
			d[i] = ^(x[i] ^ y[i])
		}
	}
	for ; w < n; w++ {
		dst[w] = ^(a[w] ^ b[w])
	}
}

// setDiffWords stores the good/bad disagreement mask dst[w] = g[w]^b[w] and
// returns the running AND of the stored words: ^0 means every word is
// saturated (all vectors propagate), which lets segmented replay stop
// early. The saturation test is strict — all 64 bits including any phantom
// bits beyond the universe — so skipping later OR contributions is exactly
// identity-preserving.
func setDiffWords(dst, g, b []uint64) uint64 {
	n := len(dst)
	g, b = g[:n], b[:n]
	sat := ^uint64(0)
	w := 0
	for ; w+tileWords <= n; w += tileWords {
		d := (*[tileWords]uint64)(dst[w:])
		x := (*[tileWords]uint64)(g[w:])
		y := (*[tileWords]uint64)(b[w:])
		for i := range d {
			v := x[i] ^ y[i]
			d[i] = v
			sat &= v
		}
	}
	for ; w < n; w++ {
		v := g[w] ^ b[w]
		dst[w] = v
		sat &= v
	}
	return sat
}

// orDiffWords ORs the good/bad disagreement mask into dst and returns the
// running AND of the resulting words (see setDiffWords).
func orDiffWords(dst, g, b []uint64) uint64 {
	n := len(dst)
	g, b = g[:n], b[:n]
	sat := ^uint64(0)
	w := 0
	for ; w+tileWords <= n; w += tileWords {
		d := (*[tileWords]uint64)(dst[w:])
		x := (*[tileWords]uint64)(g[w:])
		y := (*[tileWords]uint64)(b[w:])
		for i := range d {
			v := d[i] | (x[i] ^ y[i])
			d[i] = v
			sat &= v
		}
	}
	for ; w < n; w++ {
		v := dst[w] | (g[w] ^ b[w])
		dst[w] = v
		sat &= v
	}
	return sat
}
