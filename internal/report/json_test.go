package report

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleAnalysis builds a document exercising every section and edge the
// encoder must keep stable (-1 nmin, empty slices, zero options).
func sampleAnalysis() *Analysis {
	return &Analysis{
		Schema: AnalysisSchema,
		Kind:   "average",
		Circuit: CircuitInfo{
			Name: "c17", Hash: "abc123", Inputs: 5, Outputs: 2,
			Gates: 6, MultiInputGates: 6, Branches: 8, Depth: 3, VectorSpace: 32,
		},
		Options: Options{NMax: 10, K: 1000, Seed: 1, Definition: 1},
		WorstCase: &WorstCase{
			Targets: 22, DetectableTargets: 22, Untargeted: 8,
			Coverage:  []CoveragePoint{{N: 1, Pct: 75}, {N: 2, Pct: 100}},
			Tail:      []TailPoint{{N: 11, Count: 1, Pct: 12.5}},
			Unbounded: 1, MaxFinite: 4,
			NMin: []FaultNMin{{Name: "br(a,b)", NMin: 2}, {Name: "br(c,d)", NMin: UnboundedJSON}},
		},
		Average: &Average{
			Definition: 1, SubsetAbove: 11, Faults: 2,
			Thresholds: []ThresholdPoint{{P: 1.0, Count: 1}, {P: 0.0, Count: 2}},
			MinP:       0.25, MinPFault: "br(c,d)",
			ExpectedEscapes: 0.75, MeanSetSize: 12.5,
			P: []FaultP{{Name: "br(a,b)", P: 1}, {Name: "br(c,d)", P: 0.25}},
		},
	}
}

func TestAnalysisJSONRoundTrip(t *testing.T) {
	a := sampleAnalysis()
	enc := a.Encode()
	back, err := DecodeAnalysis(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("round trip changed the document:\nbefore: %+v\nafter:  %+v", a, back)
	}
	// Encoding is deterministic: re-encoding the decoded document yields
	// the same bytes — the property the result cache is built on.
	if !bytes.Equal(enc, back.Encode()) {
		t.Fatal("re-encoding the decoded document changed the bytes")
	}
}

func TestAnalysisEncodeShape(t *testing.T) {
	enc := string(sampleAnalysis().Encode())
	if !strings.HasSuffix(enc, "\n") {
		t.Fatal("encoded document must end with a newline")
	}
	for _, want := range []string{
		`"schema": "ndetect.analysis/v1"`,
		`"kind": "average"`,
		`"hash": "abc123"`,
		`"nmin": -1`, // unbounded sentinel
		`"worst_case"`,
		`"average_case"`,
	} {
		if !strings.Contains(enc, want) {
			t.Errorf("encoded document missing %q:\n%s", want, enc)
		}
	}
	// The kind's unused sections and options must be absent, not null.
	for _, absent := range []string{`"partitioned"`, `"max_inputs"`, `"null"`} {
		if strings.Contains(enc, absent) {
			t.Errorf("encoded document should not contain %q:\n%s", absent, enc)
		}
	}
}

func samplePartitioned() *Analysis {
	return &Analysis{
		Schema:  AnalysisSchema,
		Kind:    "partitioned",
		Circuit: CircuitInfo{Name: "w64", Hash: "ff", Inputs: 64},
		Options: Options{MaxInputs: 16},
		Partitioned: &Partitioned{
			MaxInputs: 16,
			Parts: []PartInfo{{
				Outputs: []int{0, 1}, Inputs: 9, VectorSpace: 512, Gates: 12,
				Targets: 30, DetectableTargets: 29, Untargeted: 4, CoverageAt10Pct: 100,
			}},
			MergedFaults: 4,
			Coverage:     []CoveragePoint{{N: 10, Pct: 100}},
			Tail:         []TailPoint{{N: 11, Count: 0, Pct: 0}},
			Merged:       []FaultNMin{{Name: "br(x,y)", NMin: 3}},
		},
	}
}

func TestPartitionedJSONRoundTrip(t *testing.T) {
	a := samplePartitioned()
	back, err := DecodeAnalysis(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("round trip changed the document:\nbefore: %+v\nafter:  %+v", a, back)
	}
}

// reference is the encoding Encode must reproduce byte for byte: the
// reflection encoder the document format was defined by.
func reference(a *Analysis) []byte {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

func checkEncode(t *testing.T, what string, a *Analysis) {
	t.Helper()
	if got, want := a.Encode(), reference(a); !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode differs from MarshalIndent:\ngot:\n%s\nwant:\n%s", what, got, want)
	}
}

// fill sets every field reachable from v non-zero: pointers allocated,
// slices of two elements, strings, ints and floats. A field of a kind it
// does not know fails the test, so a new field cannot slip past the
// differential checks below.
func fill(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i))
		}
	case reflect.String:
		v.SetString("f")
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(0.5)
	default:
		t.Fatalf("fill: no value for a %s field; teach fill and Encode about it", v.Kind())
	}
}

func filledAnalysis(t *testing.T) *Analysis {
	a := new(Analysis)
	fill(t, reflect.ValueOf(a).Elem())
	return a
}

// visit calls f on every value of kind k reachable from v.
func visit(v reflect.Value, k reflect.Kind, f func(reflect.Value)) {
	if v.Kind() == k {
		f(v)
	}
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			visit(v.Elem(), k, f)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			visit(v.Field(i), k, f)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			visit(v.Index(i), k, f)
		}
	}
}

// encodeStrings are the string cases of encoding/json's escaping rules.
var encodeStrings = []string{
	"", "(g1,0,g2,1)", `<>&"\`, "\b\f\n\r\t", "\x00", "\x1f", "\x7f",
	"\xff", "a\xc3", "\xe2\x80", "\u2028\u2029", "é中😀", "x\u2028y\xffz<",
}

// encodeFloats are the float cases of encoding/json's number format.
var encodeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64,
	1.0 / 3, 12.5, -1e-7, -1e21, 123456789e-15,
}

// setAll sets every string, float and integer reachable from v.
func setAll(v reflect.Value, s string, x float64, n int64) {
	visit(v, reflect.String, func(v reflect.Value) { v.SetString(s) })
	visit(v, reflect.Float64, func(v reflect.Value) { v.SetFloat(x) })
	visit(v, reflect.Int, func(v reflect.Value) { v.SetInt(n) })
	visit(v, reflect.Int64, func(v reflect.Value) { v.SetInt(n) })
}

func TestEncodeMatchesReference(t *testing.T) {
	worst := sampleAnalysis()
	worst.Kind, worst.Options, worst.Average = "worstcase", Options{}, nil
	for _, a := range []*Analysis{worst, sampleAnalysis(), samplePartitioned(), {}} {
		checkEncode(t, "kind "+a.Kind, a)
	}
	checkEncode(t, "every field set", filledAnalysis(t))

	// Each slice nil and empty, one at a time, nested ones included.
	slices := 0
	visit(reflect.ValueOf(filledAnalysis(t)), reflect.Slice, func(reflect.Value) { slices++ })
	for i := 0; i < slices; i++ {
		for _, empty := range []bool{false, true} {
			a, j := filledAnalysis(t), 0
			visit(reflect.ValueOf(a), reflect.Slice, func(v reflect.Value) {
				if j++; j-1 != i {
					return
				}
				if empty {
					v.Set(reflect.MakeSlice(v.Type(), 0, 0))
				} else {
					v.Set(reflect.Zero(v.Type()))
				}
			})
			checkEncode(t, "one slice nil or empty", a)
		}
	}

	// Each omitempty option alone, then none.
	opts := reflect.ValueOf(&Options{}).Elem()
	for i := 0; i < opts.NumField(); i++ {
		a := sampleAnalysis()
		a.Options = Options{}
		fill(t, reflect.ValueOf(&a.Options).Elem().Field(i))
		checkEncode(t, "option "+opts.Type().Field(i).Name, a)
	}

	for _, s := range encodeStrings {
		a := filledAnalysis(t)
		visit(reflect.ValueOf(a), reflect.String, func(v reflect.Value) { v.SetString(s) })
		checkEncode(t, "string "+s, a)
	}
	for _, x := range encodeFloats {
		a := filledAnalysis(t)
		setAll(reflect.ValueOf(a), "f", x, -3)
		checkEncode(t, "float", a)
	}
	for _, n := range []int64{-1, math.MinInt64, math.MaxInt64} {
		a := filledAnalysis(t)
		setAll(reflect.ValueOf(a), "f", 0.5, n)
		checkEncode(t, "integer", a)
	}
}

// NaN and infinities have no JSON encoding; no analysis produces one, so
// meeting one is a bug, and Encode panics as the reflection encoder did.
func TestEncodePanicsOnNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := sampleAnalysis()
		a.Average.MinP = x
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Encode with MinP = %v did not panic", x)
				}
			}()
			a.Encode()
		}()
	}
}

func FuzzEncode(f *testing.F) {
	for _, s := range encodeStrings {
		f.Add(s, 0.5, int64(1))
	}
	for _, x := range encodeFloats {
		f.Add("f", x, int64(-3))
	}
	f.Fuzz(func(t *testing.T, s string, x float64, n int64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return // both encoders refuse these; see TestEncodePanicsOnNonFinite
		}
		a := filledAnalysis(t)
		setAll(reflect.ValueOf(a), s, x, n)
		checkEncode(t, "fuzz", a)
	})
}

// Golden texts for the table formatters: the paper-layout rendering is part
// of the repo's stable surface (cmd/paper output, CI logs), so changes must
// be deliberate. The JSON encoding above is the machine-readable twin; this
// pins the human-readable one. Blank cells are padded with trailing spaces
// invisible in source literals, so comparisons trim line ends.
func trimLineEnds(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}

const goldenTable2 = `Table 2: Worst-case percentages of detected faults (small n)
circuit      faults       ≤1       ≤2       ≤3       ≤4       ≤5      ≤10
lion             23   100.00
bbara           858    80.42    84.85    89.28    89.51    92.31    97.55
`

const goldenTable3 = `Table 3: Worst-case numbers of detected faults (large n)
circuit      faults         nmin≥100          nmin≥20          nmin≥11
dvram         14737      1256 (8.52)     1653 (11.22)     1653 (11.22)
`

func TestFormatTable2Golden(t *testing.T) {
	rows := []Table2Row{
		{Circuit: "lion", Faults: 23, Pct: [6]float64{100, 100, 100, 100, 100, 100}},
		{Circuit: "bbara", Faults: 858, Pct: [6]float64{80.42, 84.85, 89.28, 89.51, 92.31, 97.55}},
	}
	if got := trimLineEnds(FormatTable2(rows)); got != goldenTable2 {
		t.Fatalf("FormatTable2 drifted from golden:\n--- got:\n%q\n--- want:\n%q", got, goldenTable2)
	}
}

func TestFormatTable3Golden(t *testing.T) {
	rows := []Table3Row{{Circuit: "dvram", Faults: 14737, Ge100: 1256, Ge20: 1653, Ge11: 1653}}
	if got := trimLineEnds(FormatTable3(rows)); got != goldenTable3 {
		t.Fatalf("FormatTable3 drifted from golden:\n--- got:\n%q\n--- want:\n%q", got, goldenTable3)
	}
}

func TestFormatTable5And6Golden(t *testing.T) {
	t5 := trimLineEnds(FormatTable5([]Table5Row{
		{Circuit: "ex4", Faults: 82, Counts: [11]int{32, 82, 82, 82, 82, 82, 82, 82, 82, 82, 82}},
	}, 10))
	wantT5 := `Table 5: Average-case probabilities of detection  p(10,gj) ≥
circuit     faults    1.0    0.9    0.8    0.7    0.6    0.5    0.4    0.3    0.2    0.1    0.0
ex4             82     32     82
`
	if t5 != wantT5 {
		t.Fatalf("FormatTable5 drifted from golden:\n--- got:\n%q\n--- want:\n%q", t5, wantT5)
	}

	t6 := trimLineEnds(FormatTable6([]Table6Row{{
		Circuit: "bbara", Faults: 21,
		Def1: [11]int{1, 8, 14, 16, 16, 18, 19, 20, 21, 21, 21},
		Def2: [11]int{10, 18, 19, 20, 21, 21, 21, 21, 21, 21, 21},
	}}, 10))
	wantT6 := `Table 6: Average-case probabilities of detection under Definitions 1 and 2  p(10,gj) ≥
circuit     faults  def    1.0    0.9    0.8    0.7    0.6    0.5    0.4    0.3    0.2    0.1    0.0
bbara           21    1      1      8     14     16     16     18     19     20     21
                      2     10     18     19     20     21
`
	if t6 != wantT6 {
		t.Fatalf("FormatTable6 drifted from golden:\n--- got:\n%q\n--- want:\n%q", t6, wantT6)
	}
}
