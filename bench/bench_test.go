package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailIsEleventhLargest(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	if got := tail(xs); got != 90 {
		t.Errorf("tail of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
	if got := tail(xs[:11]); got != 90 {
		t.Errorf("tail of 100..90 = %v, want 90", got)
	}
	if got := tail([]float64{3, 1, 2}); got != 3 {
		t.Errorf("tail of three samples = %v, want the largest", got)
	}
	if got := tail(nil); got != 0 {
		t.Errorf("tail of no samples = %v, want 0", got)
	}
}

func TestTailIsMedianOverBlocks(t *testing.T) {
	// Three blocks of 200 ops (the last takes 50 more); each block holds
	// 0..199 plus a block-specific offset, so its 11th-largest is 189 plus
	// that offset. A wild outlier in the first block shifts that block by
	// one rank and leaves the median alone.
	var xs []float64
	for b, offset := range []float64{0, 1000, 5} {
		for i := 0; i < tailBlock; i++ {
			xs = append(xs, float64(i)+offset)
		}
		if b == 2 {
			for i := 0; i < 50; i++ {
				xs = append(xs, offset)
			}
		}
	}
	xs[17] = 1e9
	if got := tail(xs); got != 194 {
		t.Errorf("tail = %v, want 194, the median of 189, 1189 and 194", got)
	}
	if got := tail(xs[:2*tailBlock-1]); got != blockTail(xs[:2*tailBlock-1]) {
		t.Errorf("a run shorter than two blocks must be one block")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 30}, {20, 40}, {35, 38}, {90, 120}, {200, 300}}
	// Covered: [10,40) once despite the overlaps, plus [90,100) clipped to
	// the parent; the child outside the parent covers nothing.
	if got := selfTime(parent, children); got != 60 {
		t.Errorf("self time = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestLinkParentsByContainment(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	op := tr.begin("op", 0, at(0))
	call := tr.begin("call", op, at(1))
	tr.add("total", at(2), at(50))
	tr.add("verify", at(3), at(10))
	tr.add("repair", at(10), at(40))
	tr.add("elsewhere", at(60), at(70))
	tr.end(call, at(51))
	tr.end(op, at(52))

	byName := map[string]span{}
	for _, s := range tr.link() {
		byName[s.Name] = s
	}
	for child, parent := range map[string]string{"call": "op", "total": "call", "verify": "total", "repair": "total"} {
		if got, want := byName[child].Parent, byName[parent].ID; got != want {
			t.Errorf("%s: parent %d, want %s (%d)", child, got, parent, want)
		}
		if got, want := byName[child].Trace, byName["op"].ID; got != want {
			t.Errorf("%s: trace %d, want the op's id %d", child, got, want)
		}
	}
	if s := byName["elsewhere"]; s.Parent != 0 || s.Trace != s.ID {
		t.Errorf("uncontained span: parent %d trace %d, want a root", s.Parent, s.Trace)
	}
	if got, want := byName["total"].Self, int64(48-7-30)*int64(time.Millisecond); got != want {
		t.Errorf("total self time %d, want %d", got, want)
	}
}

var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q does not match %v", m.name, metricName)
		}
		if !unitPattern.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.name, m.unit, unitPattern)
		}
		if seen[m.name] {
			t.Errorf("metric %s is defined twice", m.name)
		}
		seen[m.name] = true
	}
	for _, sp := range specs {
		if !metricName.MatchString(sp.name) {
			t.Errorf("workload name %q does not match %v", sp.name, metricName)
		}
	}
}

// benchmarkJSON is the repository's benchmark definition.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
	RunSeconds int `json:"run_seconds"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default -seconds is %d", doc.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, sp := range specs {
		want = append(want, sp.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, code runs %v", names, want)
	}
	check := func(kind string, listed map[string]string, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code emits %d", kind, len(listed), len(defs))
		}
		for _, m := range defs {
			if unit, ok := listed[m.name]; !ok || unit != m.unit {
				t.Errorf("%s: metric %s (%s) listed as %q", kind, m.name, m.unit, unit)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	check("end_to_end", e2e, endToEnd)
	layer := map[string]string{}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("per_layer", layer, perLayer)
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", doc.Paths)
	}
}

// TestSmoke runs every workload for a handful of ops, untraced and traced,
// through the same code as a measured run. It asserts logical outcomes only:
// every op succeeds, the correctness gate passes, and every metric
// BENCHMARK.json lists is emitted.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // journal directories and span files
	doc := loadBenchmarkJSON(t)
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: sp.name, seed: 7, seconds: 1, trace: traced, setups: 1, limit: 3}
			var out bytes.Buffer
			res, err := runWorkload(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", sp.name, traced, err, out.String())
			}
			if res.Attempted == 0 || res.Failed != 0 || strings.Contains(out.String(), "CHECK FAILED") {
				t.Errorf("%s trace=%v: attempted %d failed %d\n%s", sp.name, traced, res.Attempted, res.Failed, out.String())
			}
			listed := map[string]bool{}
			if traced {
				for _, m := range doc.PerLayer {
					listed[m.Name] = true
				}
			} else {
				for _, m := range doc.EndToEnd {
					listed[m.Name] = true
				}
			}
			for name := range listed {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", sp.name, traced, name)
				}
			}
			if len(res.Metrics) != len(listed) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json lists %d", sp.name, traced, len(res.Metrics), len(listed))
			}
		}
	}
}
