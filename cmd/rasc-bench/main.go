// Command rasc-bench regenerates the RASC paper's evaluation (Figures
// 6–11): for every requested rate it submits a randomized workload with
// each composition algorithm on a simulated 32-node deployment and prints
// the measured series, optionally writing CSV files. With -scalability it
// runs the deployment-size sweep instead.
//
// Example:
//
//	rasc-bench                 # full sweep, all figures
//	rasc-bench -figure 7       # one figure
//	rasc-bench -seeds 2 -csv out/
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rasc.dev/rasc/internal/experiment"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes tables to stdout and
// diagnostics to stderr, and returns the exit code (2 for a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rasc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figure    = fs.Int("figure", 0, "figure to regenerate (6-11); 0 = all")
		seeds     = fs.Int("seeds", 5, "number of seeded runs to average")
		requests  = fs.Int("requests", 0, "requests per run (0 = calibrated default)")
		nodes     = fs.Int("nodes", 32, "deployment size")
		rates     = fs.String("rates", "5,10,15,20", "per-request rates in units/sec (10 Kbps each)")
		composers = fs.String("composers", "mincost,greedy,random", "composers to compare")
		measure   = fs.Duration("measure", 0, "virtual measurement window (0 = default)")
		csvDir    = fs.String("csv", "", "directory to write per-figure CSV files")
		quiet     = fs.Bool("quiet", false, "suppress per-run progress")
		scal      = fs.Bool("scalability", false, "run the deployment-size sweep instead of the figures")
		p95       = fs.Bool("p95", false, "also print the p95 end-to-end delay table")
		stale     = fs.Duration("stale-stats", 0, "serve monitoring reports cached up to this age (ablation)")
		poisson   = fs.Bool("poisson", false, "Poisson request arrivals instead of a fixed gap")
		bg        = fs.Int("background", 0, "number of cross-traffic background flows")
		parallel  = fs.Int("parallel", 0, "sweep worker-pool size (0 = NumCPU, 1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	progress := func(s string) { fmt.Fprintln(stdout, s) }
	if *quiet {
		progress = nil
	}
	// writeCSV writes one table under -csv; a failure is the run's failure.
	writeCSV := func(name, body string) bool {
		if *csvDir == "" {
			return true
		}
		path := filepath.Join(*csvDir, name)
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return false
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return false
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		return true
	}

	if *scal {
		t, err := experiment.RunScalability(experiment.ScalabilityConfig{Parallelism: *parallel, Progress: progress})
		if err != nil {
			fmt.Fprintf(stderr, "scalability: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, t)
		if !writeCSV("scalability.csv", t.CSV()) {
			return 1
		}
		return 0
	}

	if *seeds < 1 {
		fmt.Fprintf(stderr, "-seeds %d: need at least one seed\n", *seeds)
		return 2
	}
	figures := []int{6, 7, 8, 9, 10, 11}
	if *figure != 0 {
		if *figure < 6 || *figure > 11 {
			fmt.Fprintf(stderr, "-figure %d: the paper's figures are 6-11\n", *figure)
			return 2
		}
		figures = []int{*figure}
	}
	var rateList []int
	for _, r := range strings.Split(*rates, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(r))
		if err != nil {
			fmt.Fprintf(stderr, "bad rate %q: %v\n", r, err)
			return 2
		}
		rateList = append(rateList, v)
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}
	start := time.Now()
	res, err := experiment.Run(experiment.Config{
		Nodes:           *nodes,
		Seeds:           seedList,
		Rates:           rateList,
		Requests:        *requests,
		Composers:       strings.Split(*composers, ","),
		MeasureFor:      *measure,
		StatsMaxAge:     *stale,
		PoissonArrivals: *poisson,
		BackgroundFlows: *bg,
		Parallelism:     *parallel,
		Progress:        progress,
	})
	if err != nil {
		fmt.Fprintf(stderr, "experiment: %v\n", err)
		return 1
	}
	for _, n := range figures {
		t, err := res.Figure(n)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, t)
		if !writeCSV(fmt.Sprintf("figure%d.csv", n), t.CSV()) {
			return 1
		}
	}
	if *p95 {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, res.DelayP95Table())
	}
	fmt.Fprintf(stdout, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}
