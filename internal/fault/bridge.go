package fault

import "ndetect/internal/circuit"

// Bridge is one of the four-way bridging faults between two lines.
//
// The paper denotes the fault (l1, a1, l2, a2) and states it is activated
// when l1 = a1 and l2 = a2. As printed, the effect clause ("it then results
// in l1 = a1") is vacuous; the reading consistent with the paper's own
// example — g0 = (9,0,10,1), a fault with a2 = ¬a1 — is the classical
// dominance bridge: when the dominant line l1 carries a1 and the victim line
// l2 carries a2 = ¬a1, the bridge forces the victim to the dominant line's
// value a1. The four faults of a line pair {u,w} are then
//
//	(u,0,w,1)  (u,1,w,0)  (w,0,u,1)  (w,1,u,0)
//
// i.e. each line dominating the other, for each polarity. DESIGN.md §4
// records this interpretation.
type Bridge struct {
	Dominant int  // l1: node ID of the dominant line
	Victim   int  // l2: node ID of the victim line
	Value    bool // a1: value of the dominant line when the fault is activated
}

// Name renders the fault in the paper's (l1,a1,l2,a2) tuple notation.
func (g Bridge) Name(c *circuit.Circuit) string {
	return string(BridgeProvider{}.AppendName(nil, c, BridgeDescriptor(g)))
}

// Bridges enumerates the candidate untargeted fault universe of the paper:
// four-way bridging faults between outputs of multi-input gates, with
// feedback bridges (a structural path between the two lines, in either
// direction) excluded. Detectability is a semantic property and is decided
// later, by the fault model's T-set builder. The non-feedback pairs are
// counted first, so the result is allocated once at its final size.
func Bridges(c *circuit.Circuit) []Bridge {
	sites := BridgeSites(c)
	// Transitive fanin once per site, by site position: pair (u,w) is a
	// feedback bridge iff u ∈ TFI(w) or w ∈ TFI(u).
	tfi := make([][]bool, len(sites))
	for i, s := range sites {
		tfi[i] = c.TransitiveFanin(s)
	}
	feedback := func(i, j int) bool { return tfi[j][sites[i]] || tfi[i][sites[j]] }
	pairs := 0
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if !feedback(i, j) {
				pairs++
			}
		}
	}
	out := make([]Bridge, 0, 4*pairs)
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if feedback(i, j) {
				continue
			}
			u, w := sites[i], sites[j]
			out = append(out,
				Bridge{Dominant: u, Victim: w, Value: false},
				Bridge{Dominant: u, Victim: w, Value: true},
				Bridge{Dominant: w, Victim: u, Value: false},
				Bridge{Dominant: w, Victim: u, Value: true},
			)
		}
	}
	return out
}

// BridgeSites returns the node IDs eligible as bridge endpoints (outputs of
// multi-input gates), in ID order.
func BridgeSites(c *circuit.Circuit) []int {
	var sites []int
	for _, n := range c.Nodes {
		if n.IsMultiInputGateOutput() {
			sites = append(sites, n.ID)
		}
	}
	return sites
}
