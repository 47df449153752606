package ndetect

// This file holds the summary layer over Procedure1's raw detection counts:
// the quantities tabulated in the paper's Tables 5 and 6.

// SubsetUntargeted returns a copy of the universe keeping only the
// untargeted faults at the given indices (same targets, same vector space).
// The paper's average-case tables consider only the faults with
// nmin(g) ≥ 11; this is how that restriction is expressed.
func (u *Universe) SubsetUntargeted(indices []int) *Universe {
	s := &Universe{
		Size:       u.Size,
		Targets:    u.Targets,
		Untargeted: make([]Fault, len(indices)),
	}
	for i, j := range indices {
		s.Untargeted[i] = u.Untargeted[j]
	}
	return s
}

// ThresholdCounts returns, for iteration n, the number of untargeted faults
// with p(n,g) ≥ each value of the ladder — with report.Thresholds, one row
// of Table 5.
func (r *Procedure1Result) ThresholdCounts(n int, ladder []float64) []int {
	out := make([]int, len(ladder))
	for j := range r.Detected[n-1] {
		p := r.P(n, j)
		for ti, th := range ladder {
			if p >= th-1e-12 {
				out[ti]++
			}
		}
	}
	return out
}

// MinP returns the smallest p(n,g) over the untargeted faults, with its
// fault index (the paper quotes these minima in the Table 5 discussion).
func (r *Procedure1Result) MinP(n int) (p float64, index int) {
	p, index = 2, -1
	for j := range r.Detected[n-1] {
		if v := r.P(n, j); v < p {
			p, index = v, j
		}
	}
	if index == -1 {
		return 0, -1
	}
	return p, index
}

// ExpectedEscapes returns the expected number of the analysed untargeted
// faults left undetected by an arbitrary n-detection test set: Σ_j (1 −
// p(n,g_j)).
func (r *Procedure1Result) ExpectedEscapes(n int) float64 {
	s := 0.0
	for j := range r.Detected[n-1] {
		s += 1 - r.P(n, j)
	}
	return s
}

// MeanSetSize returns the average size of the K n-detection test sets. The
// paper notes size grows approximately linearly with n; the bench
// BenchmarkSetSizeGrowth records this.
func (r *Procedure1Result) MeanSetSize(n int) float64 {
	return float64(r.SetSizeSum[n-1]) / float64(r.K)
}
