// Command bench is the repository's benchmark suite: five named workloads,
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. See README.md in this directory and BENCHMARK.json at the
// root of the repository.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// workloadNames lists every workload in the order the suite runs them.
var workloadNames = []string{"sim-stream", "sim-stream-batched", "sim-compose", "sim-contended", "live-loopback"}

func simWorkloadByName(name string, short bool) *simWorkload {
	for _, w := range simWorkloads {
		if w.name == name {
			if short {
				return w.shortened()
			}
			return w
		}
	}
	return nil
}

// runWorkload executes one run of one workload in this process.
func runWorkload(name string, seed int64, seconds float64, traced, short bool) (*outcome, error) {
	var o *outcome
	var tf *traceFile
	switch w := simWorkloadByName(name, short); {
	case w != nil && !traced:
		o = w.run(seed, seconds)
	case w != nil:
		probes := runProbes(seed, short)
		o, tf = w.runTraced(seed, probes)
		o.merge(probes)
	case name == "live-loopback":
		var err error
		if o, tf, err = runLive(seed, seconds, traced, short); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if traced {
		o.set("process.peak_rss_mb", peakRSSMB(), 0)
	}
	if tf != nil {
		if err := writeTrace(tf); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// resultsDir is where trace files and suite results go: results/ next to
// this package's sources when run from the repository root or from bench/.
func resultsDir() string {
	if _, err := os.Stat("bench"); err == nil {
		return filepath.Join("bench", "results")
	}
	return "results"
}

func writeTrace(tf *traceFile) error {
	dir := resultsDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), b, 0o644)
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a driver-mode run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric of the chosen kind by name with its unit and
// sample count, then the violations, then the result line.
func report(o *outcome, defs []metricDef) bool {
	if o.attempted < 1 {
		o.violations = append(o.violations, "no operation was attempted")
	}
	line := resultLine{Correct: len(o.violations) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := o.metrics[d.name]
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		n := ""
		if c, ok := o.samples[d.name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("%-44s %16.6g %-6s%s\n", d.name, v, d.unit, n)
	}
	if o.note != "" {
		fmt.Println("#", o.note)
	}
	sort.Strings(o.violations)
	for i, v := range o.violations {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "… and %d more\n", len(o.violations)-20)
			break
		}
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", v)
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	fmt.Println(string(b))
	return line.Correct
}

// runDriver is driver mode: one run of one workload in this process, every
// metric of the run's kind printed by name, the result line last. It
// returns the exit code: non-zero when a check failed or the run could not
// be made.
func runDriver(workload string, seed int64, seconds float64, traced, short bool) int {
	fmt.Printf("# %s seed=%d seconds=%g trace=%v short=%v nproc=%d GOMAXPROCS=%d %s\n",
		workload, seed, seconds, traced, short, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	o, err := runWorkload(workload, seed, seconds, traced, short)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if !report(o, defs) {
		return 1
	}
	return 0
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process and print its result line (driver mode)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 16, "how long one untraced run measures")
		traceOn  = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
		short    = flag.Bool("short", false, "CI-sized smoke run: every workload and check, small sizes, no bounds")
		repeat   = flag.Int("repeat", 1, "suite mode: run this many sets, on seeds seed, seed+1, …, and print per metric the median, quartiles and spread")
		out      = flag.String("o", "", "suite mode: also write the results as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two result files (-compare a.json b.json) under BENCHMARK.json's bounds")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		os.Exit(runDriver(*workload, *seed, *seconds, *traceOn == 1, *short))
	default:
		os.Exit(runSuite(*seed, *seconds, *short, *repeat, *out))
	}
}
