package report

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// Machine-readable analysis results.
//
// Analysis is the JSON document both `cmd/ndetect -json` and the ndetectd
// serving layer emit — one encoder, so CLI and daemon outputs are diffable
// byte for byte. Encoding is deterministic: field order is struct order,
// slices carry explicit ordering, and there are no maps or timestamps. The
// serving layer relies on that determinism for its golden-stability
// guarantee (a cache hit is byte-identical to a cold run, DESIGN.md §10).
//
// nmin values use -1 for "unbounded" (no n-detection test set is ever
// guaranteed to detect the fault) — math.MaxInt would survive a JSON round
// trip but reads as noise.

// AnalysisSchema identifies the document layout; bump on incompatible
// change.
const AnalysisSchema = "ndetect.analysis/v1"

// UnboundedJSON is the JSON encoding of an unbounded nmin.
const UnboundedJSON = -1

// Analysis is one circuit's complete analysis result.
type Analysis struct {
	Schema  string      `json:"schema"`
	Kind    string      `json:"kind"` // "worstcase", "average" or "partitioned"
	Circuit CircuitInfo `json:"circuit"`
	Options Options     `json:"options"`

	// Exactly the sections the kind implies: worstcase fills WorstCase,
	// average fills WorstCase and Average, partitioned fills Partitioned.
	WorstCase   *WorstCase   `json:"worst_case,omitempty"`
	Average     *Average     `json:"average_case,omitempty"`
	Partitioned *Partitioned `json:"partitioned,omitempty"`
}

// CircuitInfo identifies and summarizes the analysed circuit. Hash is the
// canonical content hash (circuit.Hash) — the cache identity; Name is
// presentation only.
type CircuitInfo struct {
	Name            string `json:"name"`
	Hash            string `json:"hash"`
	Inputs          int    `json:"inputs"`
	Outputs         int    `json:"outputs"`
	Gates           int    `json:"gates"`
	MultiInputGates int    `json:"multi_input_gates"`
	Branches        int    `json:"branches"`
	Depth           int    `json:"depth"`
	VectorSpace     int    `json:"vector_space"` // |U| = 2^inputs; 0 when it overflows int
}

// Options records the result-identity options of the run (DESIGN.md §7):
// every field here changes results, which is why the serving layer keys its
// cache on (circuit hash, kind, these options) — and why Workers, which
// only changes wall-clock time, is absent.
type Options struct {
	// FaultModel is the fault model the universe was built under; empty
	// means the default model (fault.DefaultModelID), so default-model
	// documents are byte-identical to pre-registry ones.
	FaultModel string `json:"fault_model,omitempty"`

	NMax       int   `json:"nmax,omitempty"`       // average
	K          int   `json:"k,omitempty"`          // average
	Seed       int64 `json:"seed,omitempty"`       // average
	Definition int   `json:"definition,omitempty"` // average: 1 or 2
	Ge11Limit  int   `json:"ge11_limit,omitempty"` // average: cap on the analysed subset (0 = none)
	MaxInputs  int   `json:"max_inputs,omitempty"` // partitioned: per-part input limit
}

// CoveragePoint is one "nmin(g) ≤ n" column: the fraction of untargeted
// faults guaranteed by any n-detection test set.
type CoveragePoint struct {
	N   int     `json:"n"`
	Pct float64 `json:"pct"`
}

// TailPoint is one "nmin(g) ≥ n" column.
type TailPoint struct {
	N     int     `json:"n"`
	Count int     `json:"count"`
	Pct   float64 `json:"pct"`
}

// FaultNMin is one untargeted fault's worst-case verdict.
type FaultNMin struct {
	Name string `json:"name"`
	NMin int    `json:"nmin"` // -1 = unbounded
}

// WorstCase is the Section 2 analysis of one circuit: the machine-readable
// form of the Table 2 and Table 3 rows plus the full per-fault verdict.
type WorstCase struct {
	Targets           int `json:"targets"`
	DetectableTargets int `json:"detectable_targets"`
	Untargeted        int `json:"untargeted"`

	Coverage  []CoveragePoint `json:"coverage"` // at NMinColumns
	Tail      []TailPoint     `json:"tail"`     // at Table3Columns
	Unbounded int             `json:"unbounded"`
	MaxFinite int             `json:"max_finite"`

	// NMin lists every untargeted fault in universe index order.
	NMin []FaultNMin `json:"nmin"`
}

// ThresholdPoint is one probability-ladder column of Tables 5/6: the number
// of analysed faults with p(nmax, g) ≥ P.
type ThresholdPoint struct {
	P     float64 `json:"p"`
	Count int     `json:"count"`
}

// FaultP is one fault's estimated detection probability at n = nmax.
type FaultP struct {
	Name string  `json:"name"`
	P    float64 `json:"p"`
}

// Average is the Section 3 analysis: Procedure 1 statistics over the
// faults the worst case does not settle (nmin > nmax), optionally capped
// by Ge11Limit with even sampling across the nmin-sorted list.
type Average struct {
	Definition int `json:"definition"` // 1 or 2
	// SubsetAbove is the nmin threshold defining the analysed subset
	// (faults with nmin > nmax, i.e. ≥ SubsetAbove).
	SubsetAbove int `json:"subset_above"`
	Faults      int `json:"faults"` // subset size after the cap

	Thresholds      []ThresholdPoint `json:"thresholds"` // at report.Thresholds
	MinP            float64          `json:"min_p"`
	MinPFault       string           `json:"min_p_fault"`
	ExpectedEscapes float64          `json:"expected_escapes"`
	MeanSetSize     float64          `json:"mean_set_size"`

	// P lists p(nmax, g) for every analysed fault in subset order.
	P []FaultP `json:"p"`
}

// PartInfo is one part of the partitioned pipeline, in Split order.
type PartInfo struct {
	// Outputs are the original primary-output positions the part covers.
	Outputs           []int   `json:"outputs"`
	Inputs            int     `json:"inputs"`
	VectorSpace       int     `json:"vector_space"`
	Gates             int     `json:"gates"`
	Targets           int     `json:"targets"`
	DetectableTargets int     `json:"detectable_targets"`
	Untargeted        int     `json:"untargeted"`
	CoverageAt10Pct   float64 `json:"coverage_at_10_pct"`
}

// Partitioned is the Section 4 pipeline result: per-part summaries plus
// the merged worst-case table (per-part bounds; see DESIGN.md §8 for what
// the merged numbers mean).
type Partitioned struct {
	MaxInputs int        `json:"max_inputs"`
	Parts     []PartInfo `json:"parts"`

	MergedFaults int             `json:"merged_faults"`
	Coverage     []CoveragePoint `json:"coverage"`
	Tail         []TailPoint     `json:"tail"`
	Unbounded    int             `json:"unbounded"`
	MaxFinite    int             `json:"max_finite"`

	// Merged lists every merged bridging fault in sorted name order.
	Merged []FaultNMin `json:"merged"`
}

// Encode renders the document as indented JSON with a trailing newline —
// the exact bytes served, cached, and diffed. They are the bytes of
// json.MarshalIndent(a, "", "  ") plus "\n" (json_test.go keeps that call
// as the reference), appended by hand into one buffer sized from the row
// counts, without reflection. The analyses never produce a NaN or an
// infinity; one panics, as it did under encoding/json.
func (a *Analysis) Encode() []byte {
	w := writer{b: make([]byte, 0, a.sizeHint())}
	w.analysis(a)
	return append(w.b, '\n')
}

// sizeHint estimates the encoded length from the row counts. Per-fault
// rows are counted exactly, except for escapes in their names and the
// width of a float (24 bytes allowed); the small sections get a fixed
// allowance each. append grows the buffer when the estimate falls short.
func (a *Analysis) sizeHint() int {
	n := 1024 + len(a.Circuit.Name) + len(a.Circuit.Hash) + len(a.Options.FaultModel)
	if wc := a.WorstCase; wc != nil {
		n += 96*(len(wc.Coverage)+len(wc.Tail)) + nminRowsSize(wc.NMin)
	}
	if av := a.Average; av != nil {
		n += 96*len(av.Thresholds) + len(av.MinPFault)
		for i := range av.P {
			n += rowSize + len(av.P[i].Name) + len(rowP) + 24
		}
	}
	if p := a.Partitioned; p != nil {
		n += 96*(len(p.Coverage)+len(p.Tail)) + nminRowsSize(p.Merged)
		for i := range p.Parts {
			n += 512 + 16*len(p.Parts[i].Outputs)
		}
	}
	return n
}

// rowSize is the length every row has besides its name, its second
// field's label and its number: the comma and indent before the row, the
// name's quotes, and the opening and closing chunks.
const rowSize = len(",\n      ") + len(rowName) + 2 + len(rowEnd)

func nminRowsSize(rows []FaultNMin) int {
	n := 0
	for i := range rows {
		n += rowSize + len(rows[i].Name) + len(rowNMin) + digits(rows[i].NMin)
	}
	return n
}

// digits is the length of v in decimal, sign included.
func digits(v int) int {
	n := 1
	if v < 0 {
		n, v = 2, -v
	}
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// writer appends one document in MarshalIndent's layout: each member or
// element on its own line, indented two spaces per open object or array,
// and an empty object or array kept as "{}" or "[]". There is one method
// per document type.
type writer struct {
	b     []byte
	depth int // objects and arrays open
}

// indent is a line break and the indent of the deepest line a document
// has: a part's output index, five levels down.
const indent = "\n          "

// The fixed parts of a per-fault row. Rows make up nearly all of a large
// document, so each row appends its line breaks and indents as whole
// chunks; rows always sit three levels down (document, section, list).
const (
	rowName = "{\n        \"name\": "
	rowNMin = ",\n        \"nmin\": "
	rowP    = ",\n        \"p\": "
	rowEnd  = "\n      }"
)

func (w *writer) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
}

// close ends the innermost object or array with c.
func (w *writer) close(c byte) {
	w.depth--
	if last := w.b[len(w.b)-1]; last != '{' && last != '[' {
		w.b = append(w.b, indent[:1+2*w.depth]...)
	}
	w.b = append(w.b, c)
}

// next starts a member or element: a comma after the previous one, then
// the line break and indent.
func (w *writer) next() {
	if last := w.b[len(w.b)-1]; last != '{' && last != '[' {
		w.b = append(w.b, ',')
	}
	w.b = append(w.b, indent[:1+2*w.depth]...)
}

func (w *writer) key(name string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *writer) str(name, v string) {
	w.key(name)
	w.b = appendString(w.b, v)
}

func (w *writer) int(name string, v int) {
	w.key(name)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

func (w *writer) float(name string, v float64) {
	w.key(name)
	w.b = appendFloat(w.b, v)
}

// list writes xs as an array with one element per line, and a nil slice
// as null.
func list[T any](w *writer, name string, xs []T, elem func(*writer, *T)) {
	w.key(name)
	if xs == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for i := range xs {
		w.next()
		elem(w, &xs[i])
	}
	w.close(']')
}

func (w *writer) analysis(a *Analysis) {
	w.open('{')
	w.str("schema", a.Schema)
	w.str("kind", a.Kind)
	w.key("circuit")
	w.circuit(&a.Circuit)
	w.key("options")
	w.options(&a.Options)
	if a.WorstCase != nil {
		w.key("worst_case")
		w.worstCase(a.WorstCase)
	}
	if a.Average != nil {
		w.key("average_case")
		w.average(a.Average)
	}
	if a.Partitioned != nil {
		w.key("partitioned")
		w.partitioned(a.Partitioned)
	}
	w.close('}')
}

func (w *writer) circuit(c *CircuitInfo) {
	w.open('{')
	w.str("name", c.Name)
	w.str("hash", c.Hash)
	w.int("inputs", c.Inputs)
	w.int("outputs", c.Outputs)
	w.int("gates", c.Gates)
	w.int("multi_input_gates", c.MultiInputGates)
	w.int("branches", c.Branches)
	w.int("depth", c.Depth)
	w.int("vector_space", c.VectorSpace)
	w.close('}')
}

// options writes only the non-zero fields: every one is omitempty.
func (w *writer) options(o *Options) {
	w.open('{')
	if o.FaultModel != "" {
		w.str("fault_model", o.FaultModel)
	}
	if o.NMax != 0 {
		w.int("nmax", o.NMax)
	}
	if o.K != 0 {
		w.int("k", o.K)
	}
	if o.Seed != 0 {
		w.key("seed")
		w.b = strconv.AppendInt(w.b, o.Seed, 10)
	}
	if o.Definition != 0 {
		w.int("definition", o.Definition)
	}
	if o.Ge11Limit != 0 {
		w.int("ge11_limit", o.Ge11Limit)
	}
	if o.MaxInputs != 0 {
		w.int("max_inputs", o.MaxInputs)
	}
	w.close('}')
}

func (w *writer) coveragePoint(p *CoveragePoint) {
	w.open('{')
	w.int("n", p.N)
	w.float("pct", p.Pct)
	w.close('}')
}

func (w *writer) tailPoint(p *TailPoint) {
	w.open('{')
	w.int("n", p.N)
	w.int("count", p.Count)
	w.float("pct", p.Pct)
	w.close('}')
}

func (w *writer) thresholdPoint(p *ThresholdPoint) {
	w.open('{')
	w.float("p", p.P)
	w.int("count", p.Count)
	w.close('}')
}

func (w *writer) faultNMin(r *FaultNMin) {
	w.b = append(w.b, rowName...)
	w.b = appendString(w.b, r.Name)
	w.b = append(w.b, rowNMin...)
	w.b = strconv.AppendInt(w.b, int64(r.NMin), 10)
	w.b = append(w.b, rowEnd...)
}

func (w *writer) faultP(r *FaultP) {
	w.b = append(w.b, rowName...)
	w.b = appendString(w.b, r.Name)
	w.b = append(w.b, rowP...)
	w.b = appendFloat(w.b, r.P)
	w.b = append(w.b, rowEnd...)
}

func (w *writer) worstCase(wc *WorstCase) {
	w.open('{')
	w.int("targets", wc.Targets)
	w.int("detectable_targets", wc.DetectableTargets)
	w.int("untargeted", wc.Untargeted)
	list(w, "coverage", wc.Coverage, (*writer).coveragePoint)
	list(w, "tail", wc.Tail, (*writer).tailPoint)
	w.int("unbounded", wc.Unbounded)
	w.int("max_finite", wc.MaxFinite)
	list(w, "nmin", wc.NMin, (*writer).faultNMin)
	w.close('}')
}

func (w *writer) average(av *Average) {
	w.open('{')
	w.int("definition", av.Definition)
	w.int("subset_above", av.SubsetAbove)
	w.int("faults", av.Faults)
	list(w, "thresholds", av.Thresholds, (*writer).thresholdPoint)
	w.float("min_p", av.MinP)
	w.str("min_p_fault", av.MinPFault)
	w.float("expected_escapes", av.ExpectedEscapes)
	w.float("mean_set_size", av.MeanSetSize)
	list(w, "p", av.P, (*writer).faultP)
	w.close('}')
}

func (w *writer) partInfo(p *PartInfo) {
	w.open('{')
	list(w, "outputs", p.Outputs, func(w *writer, o *int) {
		w.b = strconv.AppendInt(w.b, int64(*o), 10)
	})
	w.int("inputs", p.Inputs)
	w.int("vector_space", p.VectorSpace)
	w.int("gates", p.Gates)
	w.int("targets", p.Targets)
	w.int("detectable_targets", p.DetectableTargets)
	w.int("untargeted", p.Untargeted)
	w.float("coverage_at_10_pct", p.CoverageAt10Pct)
	w.close('}')
}

func (w *writer) partitioned(p *Partitioned) {
	w.open('{')
	w.int("max_inputs", p.MaxInputs)
	list(w, "parts", p.Parts, (*writer).partInfo)
	w.int("merged_faults", p.MergedFaults)
	list(w, "coverage", p.Coverage, (*writer).coveragePoint)
	list(w, "tail", p.Tail, (*writer).tailPoint)
	w.int("unbounded", p.Unbounded)
	w.int("max_finite", p.MaxFinite)
	list(w, "merged", p.Merged, (*writer).faultNMin)
	w.close('}')
}

// plain[c] reports whether ASCII byte c goes into a JSON string as is.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as a JSON string under encoding/json's rules:
// '"' and '\\' backslash-escaped; \b, \f, \n, \r and \t in short form;
// other control bytes and the HTML-sensitive '<', '>' and '&' as \u00XX;
// each invalid UTF-8 byte as \ufffd; and U+2028 and U+2029 as \u2028 and
// \u2029.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json does: the shortest 'f' form, or
// the shortest 'e' form with no leading zero in a negative exponent when
// |f| < 1e-6 or |f| ≥ 1e21.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic("report: Analysis encoding failed: unsupported value " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// DecodeAnalysis parses an encoded Analysis document.
func DecodeAnalysis(data []byte) (*Analysis, error) {
	var a Analysis
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	return &a, nil
}
