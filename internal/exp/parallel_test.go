package exp

import (
	"reflect"
	"testing"
)

// TestRunAllWorkersDeterministic is the acceptance property of the parallel
// engine at the circuit level: RunAll with a fanned-out worker pool emits
// tables byte-identical to the serial pass — same rows, same order.
func TestRunAllWorkersDeterministic(t *testing.T) {
	base := Config{
		Circuits: []string{"lion", "bbara", "train4", "log"},
		K5:       20, K6: 10, Ge11Limit: 20, Seed: 5,
	}

	serial := base
	serial.Workers = 1
	want, err := RunAll(serial, "bbara", true, true, nil)
	if err != nil {
		t.Fatalf("RunAll serial: %v", err)
	}

	for _, workers := range []int{2, 8} {
		cfg := base
		cfg.Workers = workers
		got, err := RunAll(cfg, "bbara", true, true, nil)
		if err != nil {
			t.Fatalf("RunAll workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d results differ from serial:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestTablesWorkersDeterministic checks the row filtering of Tables 3 and
// 5 the same way, on a circuit mix where lion has no tail and is dropped,
// with Table 6 and the figure off.
func TestTablesWorkersDeterministic(t *testing.T) {
	base := Config{Circuits: []string{"lion", "log", "bbara"}, K5: 20, Ge11Limit: 20, Seed: 7}

	serial := base
	serial.Workers = 1
	want, err := RunAll(serial, "", true, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Table3) != 2 || len(want.Table5) != 2 {
		t.Fatalf("Table 3/5 rows = %d/%d, want 2/2 (lion has no tail)", len(want.Table3), len(want.Table5))
	}

	par := base
	par.Workers = 8
	got, err := RunAll(par, "", true, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("workers=8 tables differ from serial:\n got %+v\nwant %+v", got, want)
	}
}

// TestMapCircuitsErrorSurfaces checks that a failing circuit aborts the run
// with its error rather than a partial table.
func TestMapCircuitsErrorSurfaces(t *testing.T) {
	cfg := Config{Circuits: []string{"lion", "no-such-circuit"}, Workers: 4}
	if _, err := RunAll(cfg, "", false, false, nil); err == nil {
		t.Fatal("RunAll swallowed an unknown-circuit error")
	}
	cfg.Workers = 1
	if _, err := RunAll(cfg, "", false, false, nil); err == nil {
		t.Fatal("serial RunAll swallowed an unknown-circuit error")
	}
}
