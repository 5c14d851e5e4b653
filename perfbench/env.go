package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// fingerprint records what the numbers were measured on and with: CPU
// count and model, GOMAXPROCS, Go version, the VCS state the binary was
// built from, and the workload's seed and size. Workloads add their exact
// rates and budgets to the report's detail next to it.
func fingerprint(o options) map[string]any {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"cpu_model":    cpuModel(),
		"vcs_revision": rev,
		"vcs_dirty":    dirty,
		"workload":     o.workload,
		"seed":         o.seed,
		"seconds":      o.seconds,
		"trace":        o.trace,
		"tiny":         o.tiny,
	}
}

// cpuTimes reads the machine's total and stolen CPU time (in clock ticks)
// from /proc/stat; ok is false where there is none.
func cpuTimes() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user … steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter reports the share of the machine's CPU time a hypervisor
// gave to other tenants while a run measured: a run on a busy host reads
// slow, and this says so.
func stealMeter() func() float64 {
	s0, t0, ok := cpuTimes()
	return func() float64 {
		s1, t1, ok1 := cpuTimes()
		if !ok || !ok1 || t1 <= t0 {
			return 0
		}
		return float64(s1-s0) / float64(t1-t0)
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
