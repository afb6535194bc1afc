package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"dodo/internal/wire"
)

// shortRun runs a workload briefly with one setup.
func shortRun(t *testing.T, name string, tweak func(*model)) *result {
	t.Helper()
	sp, err := lookupSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(sp, 7, 0.2, 1, nil, tweak)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHealthyRunPasses(t *testing.T) {
	for _, name := range []string{"dmine-scan", "lu-slabs"} {
		res := shortRun(t, name, nil)
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d problems=%v", name, res.correct, res.failed, res.attempted, res.problems)
		}
	}
}

// A wrong expected byte must surface both as failed reads and as a
// backing store that disagrees with the record.
func TestFlippedExpectedByteFails(t *testing.T) {
	res := shortRun(t, "dmine-scan", func(m *model) { m.flipBlock = 0 })
	if res.correct || res.failed == 0 {
		t.Fatalf("flipped expected byte went unnoticed: correct=%v failed=%d", res.correct, res.failed)
	}
}

// A write the record does not hold must surface: a later read of the
// block, or the final store check, finds it one version ahead of the
// record.
func TestDroppedWriteRecordFails(t *testing.T) {
	res := shortRun(t, "hotcold-rw-udp", func(m *model) { m.dropWrites = 1 })
	if res.correct && res.failed == 0 {
		t.Fatalf("dropped write record went unnoticed: failed=%d problems=%v", res.failed, res.problems)
	}
}

func TestModelRoundTrip(t *testing.T) {
	m := newModel(3, 4, 64)
	buf := make([]byte, 64)
	m.fill(buf, 2, 0)
	if !m.matches(buf, 2) || m.matches(buf, 1) {
		t.Fatal("version 0 contents do not identify their block")
	}
	m.prepareWrite(buf, 2)
	if !m.matches(buf, 2) || !m.matches(buf[:16], 2) {
		t.Fatal("a recorded write does not match its bytes")
	}
	m.fill(buf, 2, 0)
	if m.matches(buf, 2) {
		t.Fatal("stale version matched after a write")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(v)
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {med, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
		}
	}
}

func TestVecTypeClassifiesBulkData(t *testing.T) {
	var prefix [wire.BulkDataPrefixSize]byte
	wire.PutBulkDataPrefix(prefix[:], 9, 1, 100)
	if typ, ok := vecType(prefix[:], 100); !ok || typ != wire.TBulkData {
		t.Fatalf("vecType = %v, %v; want bulk-data", typ, ok)
	}
	if _, ok := vecType(prefix[:], 99); ok {
		t.Fatal("vecType accepted a payload shorter than the header declares")
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 40, parent: 0},
		{start: 30, end: 60, parent: 0},  // overlaps the first child
		{start: 90, end: 120, parent: 0}, // runs past the parent
		{start: 15, end: 20, parent: 1},
	}
	self := selfTimes(spans, map[int32]int64{1: 5})
	if want := []int64{100 - 50 - 10, 30 - 5 - 5, 30, 30, 5}; !equal(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The metrics a run prints are exactly those BENCHMARK.json declares,
// with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		EndToEnd declared `json:"end_to_end"`
		PerLayer declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		rec := newRecorder()
		res, err := runWorkload(sp, 7, 0.2, 1, rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct || res.failed != 0 {
			t.Fatalf("%s: traced run failed: %v", sp.name, res.problems)
		}
		lr := rec.report(res)
		checkMetrics(t, sp.name+" end-to-end", res.endToEnd(), decl.EndToEnd)
		checkMetrics(t, sp.name+" per-layer", lr.metrics(res), decl.PerLayer)
		if lr.frames[wire.TBulkData].frames == 0 || lr.sendTotal == 0 {
			t.Errorf("%s: traced run recorded no bulk data frames", sp.name)
		}
	}
}

type declared = []struct{ Name, Unit string }

func checkMetrics(t *testing.T, kind string, ms []metric, want declared) {
	t.Helper()
	got := map[string]string{}
	for _, m := range ms {
		got[m.name] = m.unit
	}
	for _, w := range want {
		if u, ok := got[w.Name]; !ok || u != w.Unit {
			t.Errorf("%s metric %s: printed unit %q (present %v), declared %q", kind, w.Name, u, ok, w.Unit)
		}
		delete(got, w.Name)
	}
	for name := range got {
		t.Errorf("%s metric %s is printed but not declared", kind, name)
	}
}
