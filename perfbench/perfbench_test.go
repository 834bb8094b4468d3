package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestSameSeedSameBodies(t *testing.T) {
	for name, w := range workloads {
		names := storeNames(w.stores)
		gen := func(seed uint64) [][]byte {
			s := newStream(seed, 0, w.src(), w.frames, names)
			var out [][]byte
			for j := range 20 {
				out = append(out, s.next(w.pick(s, 0, j), w.batchKeys).body)
			}
			return out
		}
		a, b, c := gen(7), gen(7), gen(8)
		for j := range a {
			if !bytes.Equal(a[j], b[j]) {
				t.Fatalf("%s: body %d differs between two streams of seed 7", name, j)
			}
		}
		if bytes.Equal(a[0], c[0]) {
			t.Errorf("%s: seeds 7 and 8 produced the same first body", name)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := samples{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {0, 1}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (samples{4}).percentile(99); got != 4 {
		t.Errorf("p99 of one sample = %v, want 4", got)
	}
	if !make(samples, 1000).tailOK(99) || make(samples, 999).tailOK(99) {
		t.Error("p99 needs exactly 1000 samples for ten beyond it")
	}
	if !make(samples, 100).tailOK(90) || make(samples, 99).tailOK(90) {
		t.Error("p90 needs exactly 100 samples for ten beyond it")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python: statistics.quantiles(v, n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// gateRun is a one-store ingest run whose daemon is a stub answering
// every estimate with answer.
func gateRun(t *testing.T, answer float64) *run {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"store":"s0","all_time":%g}`, answer)
	}))
	t.Cleanup(srv.Close)
	w := *workloads["ingest"]
	w.stores = 1
	r := &run{w: &w, client: srv.Client(), names: storeNames(1), truth: newTruth(1, 1<<10)}
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = uint64(i)
	}
	r.truth.add(0, ids)
	r.checkedEstimates(func(int) string { return srv.URL + "/v1/estimate?store=s0" }, "final", new(samples))
	return r
}

func TestPlantedWrongEstimateIsCaught(t *testing.T) {
	if r := gateRun(t, 1040); len(r.violations) != 0 || r.failed.Load() != 0 {
		t.Fatalf("an estimate within ε was flagged: %v", r.violations)
	}
	r := gateRun(t, 1060)
	if len(r.violations) != 1 || r.failed.Load() != 1 || r.attempted.Load() != 1 {
		t.Fatalf("a 6%% error was not counted as one failed op: violations %v, failed %d, attempted %d",
			r.violations, r.failed.Load(), r.attempted.Load())
	}
}

func TestPlantedWrongQueryIsCaught(t *testing.T) {
	r := &run{names: storeNames(2), truth: newTruth(2, 1<<10)}
	a, b := make([]uint64, 100), make([]uint64, 100)
	for i := range a {
		a[i], b[i] = uint64(i), uint64(i+50) // |A|=|B|=100, |A∪B|=150, |A∩B|=50
	}
	r.truth.add(0, a)
	r.truth.add(1, b)
	good := queryReply{Cards: []float64{101, 99}, Union: 151, Intersection: 45, Epsilon: 0.05, ErrBound: 10}
	r.checkQuery([]int{0, 1}, good, "test")
	if len(r.violations) != 0 {
		t.Fatalf("an answer within its budget was flagged: %v", r.violations)
	}
	for _, bad := range []queryReply{
		{Cards: []float64{101, 99}, Union: 151, Intersection: 39, Epsilon: 0.05, ErrBound: 10},
		{Cards: []float64{101, 99}, Union: 160, Intersection: 50, Epsilon: 0.05, ErrBound: 10},
		{Cards: []float64{110, 99}, Union: 151, Intersection: 50, Epsilon: 0.05, ErrBound: 10},
		{Cards: []float64{100}, Union: 150, Intersection: 50, Epsilon: 0.05, ErrBound: 10},
	} {
		before := len(r.violations)
		r.checkQuery([]int{0, 1}, bad, "test")
		if len(r.violations) != before+1 {
			t.Errorf("answer %+v outside its budget was not caught", bad)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricNamesAndUnits holds BENCHMARK.json and layers.json to the
// names and units the benchmark reports.
func TestMetricNamesAndUnits(t *testing.T) {
	for name, unit := range units {
		if !metricName.MatchString(name) || unit == "" {
			t.Errorf("metric %q: bad name or missing unit %q", name, unit)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	data, err = os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers struct {
		EndToEnd []struct {
			metricSpec
			Gated bool `json:"gated"`
		} `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &layers); err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{}
	for _, m := range bench.EndToEnd {
		gated[m.Name] = true
	}
	for _, m := range layers.EndToEnd {
		if m.Gated != gated[m.Name] {
			t.Errorf("layers.json %s: gated %v, but BENCHMARK.json lists it: %v", m.Name, m.Gated, gated[m.Name])
		}
		layers.PerLayer = append(layers.PerLayer, m.metricSpec)
	}
	documented := map[string]bool{}
	for _, m := range layers.PerLayer {
		documented[m.Name] = true
		if units[m.Name] != m.Unit {
			t.Errorf("layers.json %s: unit %q, the benchmark reports %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		if units[m.Name] != m.Unit || !documented[m.Name] {
			t.Errorf("BENCHMARK.json %s: unit %q, the benchmark reports %q, documented in layers.json: %v",
				m.Name, m.Unit, units[m.Name], documented[m.Name])
		}
	}
	for name := range units {
		if !documented[name] {
			t.Errorf("metric %s is not documented in layers.json", name)
		}
	}
}

func TestParseScrape(t *testing.T) {
	page := `# HELP knwd_stage_seconds stage latency
knwd_stage_seconds_sum{stage="hash"} 1.5
knwd_stage_seconds_sum{stage="append"} 0.25
knwd_build_info{version="v1",goversion="go1.24.0",gomaxprocs="2"} 1
knwd_ingest_keys_total 42
`
	s, err := parseScrape(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("knwd_stage_seconds_sum"); got != 1.75 {
		t.Errorf("sum = %v, want 1.75", got)
	}
	if got := s.sum("knwd_stage_seconds_sum", `stage="hash"`); got != 1.5 {
		t.Errorf("hash = %v, want 1.5", got)
	}
	if got := s.sum("knwd_ingest_keys_total"); got != 42 {
		t.Errorf("keys = %v, want 42", got)
	}
	if got := s.label("knwd_build_info", "gomaxprocs"); got != "2" {
		t.Errorf("gomaxprocs = %q, want 2", got)
	}
}
