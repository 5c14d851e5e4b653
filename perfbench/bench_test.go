package main

import (
	"math"
	"testing"
	"time"
)

// tinyRun runs one workload at self-test size, traced, so the report holds
// both the end-to-end and the per-layer metrics.
func tinyRun(t *testing.T, workload string, corrupt bool) *report {
	t.Helper()
	if raceEnabled {
		t.Skip("trains networks and times open-loop traffic; too slow under the race detector")
	}
	o := options{workload: workload, seed: 7, seconds: 1, trace: true, outDir: t.TempDir(), tiny: true, corruptRef: corrupt}
	r, err := run(o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return r
}

// TestEveryMetricEmitted runs each workload at a tiny size. Every run must
// pass its checks and measure every end-to-end metric, non-zero, with the
// unit BENCHMARK.json gives it. Every per-layer metric must be measured, with
// its unit, by at least one workload: the result line fills a per-layer
// metric a workload does not exercise with 0, so this looks at what the
// runs measured, not at what they printed.
func TestEveryMetricEmitted(t *testing.T) {
	if raceEnabled {
		t.Skip("trains networks and times open-loop traffic; too slow under the race detector")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json names no workloads or metrics")
	}
	measured := map[string]string{} // metric → unit, over every workload
	for _, w := range spec.Workloads {
		r := tinyRun(t, w.Name, false)
		if len(r.failures) > 0 {
			t.Fatalf("%s: checks failed: %v", w.Name, r.failures)
		}
		for _, trace := range []bool{false, true} {
			if _, err := r.result(spec, trace); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
		}
		for _, m := range spec.EndToEnd {
			v := r.values[m.Name]
			if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a finite non-zero value", w.Name, m.Name, v)
			}
		}
		for n, u := range r.units {
			measured[n] = u
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if u, ok := measured[m.Name]; !ok {
			t.Errorf("no workload measures %s", m.Name)
		} else if u != m.Unit {
			t.Errorf("%s measured in %q, BENCHMARK.json says %q", m.Name, u, m.Unit)
		}
	}
}

// TestChecksFireOnWrongReference flips one bit of every reference the
// correctness checks compare against and expects the run to fail.
func TestChecksFireOnWrongReference(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"pipeline", "serve-hot"} {
		t.Run(w, func(t *testing.T) {
			r := tinyRun(t, w, true)
			res, err := r.result(spec, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || len(r.failures) == 0 {
				t.Fatal("a wrong reference went unnoticed")
			}
			if w != "pipeline" && res.Failed == 0 {
				t.Error("wrong answers not counted as failed")
			}
			t.Logf("%d checks failed as expected, first: %s", len(r.failures), r.failures[0])
		})
	}
}

func TestSelfTimeAndContainment(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{Name: "request", ID: 1, RequestID: "a", StartNs: 0, EndNs: ms(10)},
		{Name: "x", ID: 2, Parent: 1, RequestID: "a", StartNs: ms(1), EndNs: ms(4)},
		{Name: "y", ID: 3, Parent: 1, RequestID: "a", StartNs: ms(3), EndNs: ms(6)},
		{Name: "z", ID: 4, Parent: 2, RequestID: "a", StartNs: ms(2), EndNs: ms(3)},
	}
	ix := indexSpans(spans)
	for id, want := range map[int64]time.Duration{1: 5 * time.Millisecond, 2: 2 * time.Millisecond, 3: 3 * time.Millisecond, 4: time.Millisecond} {
		if got := ix.self[id]; got != want {
			t.Errorf("span %d self time %v, want %v", id, got, want)
		}
	}
	if bad := ix.uncontained(); len(bad) != 0 {
		t.Errorf("nested spans reported uncontained: %v", bad)
	}
	spans = append(spans, span{Name: "late", ID: 5, Parent: 1, RequestID: "a", StartNs: ms(9), EndNs: ms(11)},
		span{Name: "other", ID: 6, Parent: 1, RequestID: "b", StartNs: ms(1), EndNs: ms(2)})
	if bad := indexSpans(spans).uncontained(); len(bad) != 2 {
		t.Errorf("want the overrunning and the foreign span reported, got %v", bad)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median %v", m)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 %v", q)
	}
	if q := tailQuantile(1000); q != 0.99 {
		t.Errorf("tail of 1000 samples: %v", q)
	}
	if q := tailQuantile(500); math.Abs(q-0.98) > 1e-12 {
		t.Errorf("tail of 500 samples: %v", q)
	}
}
