// Command perfbench is the repository benchmark. It drives the public APIs
// of core, codec, nn/tensor, serve and gateway from outside, on one of two
// workloads:
//
//   - pipeline: DeepSZ steps 2–4 (assess, optimize, generate) on
//     lenet-300-100 and alexnet-s, and a full decode of the marshalled .dsz
//     bytes;
//   - serve-hot: open-loop predicts through a gateway to two serve.Server
//     replicas whose decode caches hold every model.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object holding
// every end-to-end metric BENCHMARK.json names; with --trace 1 it holds every
// per-layer metric, taken from spans the benchmark records around its own
// calls into each layer (written to a file under -out). A per-layer metric
// that the workload does not exercise reads 0. Any failed correctness check
// sets "correct" to false and makes the command exit 1. A run whose load
// generator fell behind its schedule prints no result line and exits 3.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	// tiny shrinks every workload to a few seconds of work (self-test).
	tiny bool
	// corruptRef flips one bit of every reference the correctness checks
	// compare against, so a run must report failures (self-test).
	corruptRef bool
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// report collects one run's measurements, counts and check failures.
type report struct {
	values    map[string]float64
	units     map[string]string
	attempted int
	failed    int
	failures  []string
	detail    map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, units: map[string]string{}, detail: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) {
	r.values[name] = v
	r.units[name] = unit
}

// check records a correctness check; a false ok fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result selects the metrics the run must print: every end-to-end metric
// without tracing, every per-layer metric with it.
func (r *report) result(spec *benchSpec, trace bool) (resultLine, error) {
	out := resultLine{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricOut{},
	}
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	for _, m := range want {
		v, ok := r.values[m.Name]
		if !ok && !trace {
			return out, fmt.Errorf("workload produced no value for end-to-end metric %q", m.Name)
		}
		if ok && r.units[m.Name] != m.Unit {
			return out, fmt.Errorf("metric %q measured in %q, BENCHMARK.json says %q", m.Name, r.units[m.Name], m.Unit)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	if out.Attempted < 1 {
		return out, errors.New("no operation attempted")
	}
	return out, nil
}

func run(o options) (*report, error) {
	r := newReport()
	env := fingerprint(o)
	r.detail["env"] = env
	steal := stealMeter()
	defer func() { env["cpu_steal_frac"] = steal() }()
	var err error
	switch o.workload {
	case "pipeline":
		err = runPipeline(o, r)
	case "serve-hot":
		err = runServing(o, hotConfig(o), r)
	default:
		err = fmt.Errorf("unknown workload %q (want pipeline or serve-hot)", o.workload)
	}
	return r, err
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "pipeline or serve-hot")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: models, request rows and arrival schedule derive from it")
	flag.Float64Var(&o.seconds, "seconds", 40, "length of the measured phase in seconds")
	traceN := flag.Int("trace", 0, "1 = also run the traced phase and print per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for the span file")
	flag.Parse()
	o.trace = *traceN == 1
	if *traceN != 0 && *traceN != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *traceN))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	r, err := run(o)
	if err != nil {
		fatal(err)
	}
	res, err := r.result(spec, o.trace)
	if err != nil {
		fatal(err)
	}
	printHuman(r)
	if res.Correct && !r.scheduleKept() {
		// Its latencies measure the generator, not the program: no result.
		fmt.Fprintln(os.Stderr, "perfbench: run invalid: the load generator did not keep its schedule")
		os.Exit(3)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// scheduleKept reports whether every open-loop phase of the run kept its
// schedule; a run without one kept it trivially.
func (r *report) scheduleKept() bool {
	valid, ok := r.detail["valid"].(bool)
	return !ok || valid
}

// printHuman prints every measured metric by name and unit, the run's
// details and any failed checks, ahead of the result line.
func printHuman(r *report) {
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %14.6g %s\n", n, r.values[n], r.units[n])
	}
	d, _ := json.Marshal(r.detail)
	fmt.Printf("detail %s\n", d)
	if !r.scheduleKept() {
		fmt.Println("RUN INVALID: the load generator did not keep its schedule (see schedule_kept per phase)")
	}
	for _, f := range r.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	if len(r.failures) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d correctness checks failed:\n  %s\n", len(r.failures), strings.Join(r.failures, "\n  "))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
