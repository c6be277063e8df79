package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// suiteFile is what suite mode writes with -o and what -compare reads: one
// entry per set, each mapping workload → metric → value.
type suiteFile struct {
	GoVersion  string                          `json:"go_version"`
	NumCPU     int                             `json:"nproc"`
	GoMaxProcs int                             `json:"gomaxprocs"`
	Seed       int64                           `json:"seed"`
	Seconds    float64                         `json:"seconds"`
	Short      bool                            `json:"short"`
	Sets       []map[string]map[string]float64 `json:"sets"`
}

// runChild runs one workload run in a child process of this binary, so
// that CPU time and peak RSS belong to that workload alone, and parses its
// result line.
func runChild(name string, seed int64, seconds float64, traced, short bool) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if short {
		args = append(args, "-short")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %v", name, runErr, err)
	}
	if runErr != nil || !line.Correct {
		return &line, fmt.Errorf("%s: run failed its checks (%v)", name, runErr)
	}
	return &line, nil
}

// runSuite runs every workload, untraced then traced, and prints every
// metric by name with its unit. With repeat > 1 it runs that many sets, each
// on the next seed (seed, seed+1, …), which is how the contract measures a
// metric's spread, and prints per metric the median, quartiles and relative
// spread. It returns the exit code.
func runSuite(seed int64, seconds float64, short bool, repeat int, out string) int {
	if short {
		seconds = 0.5
	}
	sf := suiteFile{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Short: short}
	fmt.Printf("# suite seed=%d seconds=%g short=%v repeat=%d nproc=%d GOMAXPROCS=%d %s\n",
		seed, seconds, short, repeat, sf.NumCPU, sf.GoMaxProcs, sf.GoVersion)
	code := 0
	start := time.Now()
	for set := 0; set < repeat; set++ {
		results := make(map[string]map[string]float64)
		for _, w := range workloadNames {
			results[w] = make(map[string]float64)
			for _, traced := range []bool{false, true} {
				line, err := runChild(w, seed+int64(set), seconds, traced, short)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					code = 1
				}
				if line == nil {
					continue
				}
				for k, v := range line.Metrics {
					results[w][k] = v.Value
				}
			}
		}
		sf.Sets = append(sf.Sets, results)
	}
	printSuite(&sf)
	fmt.Printf("# %d set(s) in %.1f s\n", repeat, time.Since(start).Seconds())
	if out != "" {
		b, err := json.MarshalIndent(&sf, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	return code
}

// values collects one metric of one workload across a file's sets.
func (sf *suiteFile) values(workload, metric string) []float64 {
	var v []float64
	for _, set := range sf.Sets {
		if x, ok := set[workload][metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

func printSuite(sf *suiteFile) {
	for _, w := range workloadNames {
		fmt.Printf("\n== %s\n", w)
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				v := sf.values(w, d.name)
				switch {
				case len(v) == 0:
				case len(v) == 1:
					fmt.Printf("%-44s %16.6g %s\n", d.name, v[0], d.unit)
				default:
					q1, q2, q3 := quartiles(v)
					fmt.Printf("%-44s median %14.6g  q1 %14.6g  q3 %14.6g  spread %6.3f  %s\n",
						d.name, q2, q1, q3, spread(v), d.unit)
				}
			}
		}
	}
}

// contract is the part of BENCHMARK.json the compare mode and the tests need.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadContract finds BENCHMARK.json at the repository root, whether the
// program runs from there or from bench/.
func loadContract() (*contract, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var c contract
		if err := json.Unmarshal(b, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &c, nil
	}
	return nil, lastErr
}

func readSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf suiteFile
	if err := json.Unmarshal(b, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}

// The bounds -compare applies. BENCHMARK.json's own bounds are sized to the
// contract's spread, which is taken across seeds and so mixes the variance
// of topologies and request lists into run-to-run noise. -compare pairs set
// i of one file with set i of the other, which ran the same seed, so it can
// hold an exact metric (simulator clock or count on a sim-* workload: the
// seed alone decides it) to a hundredth and a host-clock one to a tenth.
const (
	exactBound = 0.01
	hostBound  = 0.10
)

// exactOnSim are the end-to-end metrics that are exact on the simulator
// workloads: taken over the fixed prefix of segments, on the simulator's
// clock or as counts.
var exactOnSim = map[string]bool{
	"delivered_fraction": true, "timely_fraction": true, "rate_attainment": true,
	"composed_fraction": true, "delay_ms_p99": true, "submit_first_unit_ms_p50": true,
}

// pairBound is the bound -compare holds one workload x metric pair to.
func pairBound(workload, metric string, contractBound float64) float64 {
	if exactOnSim[metric] && simWorkloadByName(workload, false) != nil {
		return exactBound
	}
	return math.Min(contractBound, hostBound)
}

// verdict classifies one workload x metric pair of two result files whose
// sets ran the same seeds in the same order. The change is the median over
// the sets of b[i] against a[i]: "worse" when it is beyond the bound in the
// bad direction, "unresolved" when the changes themselves scatter by more
// than the bound (so a median within it means nothing), otherwise "same".
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	changes := make([]float64, len(a))
	for i := range a {
		changes[i] = ratio(b[i]-a[i], a[i])
	}
	q1, change, q3 := quartiles(changes)
	worse := change > bound
	if better == "higher" {
		worse = -change > bound
	}
	switch {
	case worse:
		return "worse", change
	case q3-q1 > bound:
		return "unresolved", change
	}
	return "same", change
}

// compareFiles applies the paired bounds to two result files and returns
// the exit code: 1 when any pair is worse.
func compareFiles(pathA, pathB string) int {
	c, err := loadContract()
	var a, b *suiteFile
	if err == nil {
		a, err = readSuite(pathA)
	}
	if err == nil {
		b, err = readSuite(pathB)
	}
	if err == nil && (a.Seed != b.Seed || len(a.Sets) != len(b.Sets) || a.Seconds != b.Seconds || a.Short != b.Short) {
		err = fmt.Errorf("%s and %s did not run the same seeds at the same size: sets are compared in pairs", pathA, pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-20s %-28s %14s %14s %8s %6s  %s\n", "workload", "metric", "a (median)", "b (median)", "change", "bound", "verdict")
	for _, w := range workloadNames {
		for _, m := range c.EndToEnd {
			va, vb := a.values(w, m.Name), b.values(w, m.Name)
			if len(va) == 0 || len(va) != len(vb) || m.Bound == nil {
				continue
			}
			bound := pairBound(w, m.Name, *m.Bound)
			v, change := verdict(va, vb, m.Better, bound)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-20s %-28s %14.6g %14.6g %+7.2f%% %6.2f  %s\n", w, m.Name,
				median(va), median(vb), 100*change, bound, v)
		}
	}
	return code
}
