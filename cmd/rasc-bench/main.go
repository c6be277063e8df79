// Command rasc-bench regenerates the RASC paper's evaluation (Figures
// 6–11): for every requested rate it submits a randomized workload with
// each composition algorithm on a simulated 32-node deployment and prints
// the measured series, optionally writing CSV files.
//
// Example:
//
//	rasc-bench                 # full sweep, all figures
//	rasc-bench -figure 7       # one figure
//	rasc-bench -seeds 2 -csv out/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rasc.dev/rasc/internal/experiment"
)

func main() {
	var (
		figure    = flag.Int("figure", 0, "figure to regenerate (6-11); 0 = all")
		seeds     = flag.Int("seeds", 5, "number of seeded runs to average")
		requests  = flag.Int("requests", 0, "requests per run (0 = calibrated default)")
		nodes     = flag.Int("nodes", 32, "deployment size")
		rates     = flag.String("rates", "5,10,15,20", "per-request rates in units/sec (10 Kbps each)")
		composers = flag.String("composers", "mincost,greedy,random", "composers to compare")
		measure   = flag.Duration("measure", 0, "virtual measurement window (0 = default)")
		csvDir    = flag.String("csv", "", "directory to write per-figure CSV files")
		quiet     = flag.Bool("quiet", false, "suppress per-run progress")
		scal      = flag.Bool("scalability", false, "run the deployment-size sweep instead of the figures")
		p95       = flag.Bool("p95", false, "also print the p95 end-to-end delay table")
		stale     = flag.Duration("stale-stats", 0, "serve monitoring reports cached up to this age (ablation)")
		poisson   = flag.Bool("poisson", false, "Poisson request arrivals instead of a fixed gap")
		bg        = flag.Int("background", 0, "number of cross-traffic background flows")
		parallel  = flag.Int("parallel", 0, "sweep worker-pool size (0 = NumCPU, 1 = serial)")
		jsonPath  = flag.String("json", "", "write compose benchmark results as JSON to this path and exit")
		admJSON   = flag.String("admission-json", "", "write admission-control benchmark results (decision latency at 1k tenants) as JSON to this path and exit")

		tsJSON    = flag.String("tenancy-scale-json", "", "write the incremental-vs-full-recompute tenancy scale comparison (5k tenants, churn + host storms) as JSON to this path and exit")
		tsSpeedup = flag.Float64("tenancy-min-speedup", 0, "with -tenancy-scale-json: fail unless the incremental admit p50 is at least this many times faster")

		fedJSON    = flag.String("federation-json", "", "write the federated-vs-flat multi-cluster composition comparison (3 clusters, partitioned catalog, boundary hand-offs) as JSON to this path and exit")
		fedSuccess = flag.Float64("federation-min-handoff", 0, "with -federation-json: fail unless the hand-off success rate is at least this fraction")
	)
	flag.Parse()

	if *jsonPath != "" {
		if err := runBenchJSON(*jsonPath, *parallel); err != nil {
			fmt.Fprintf(os.Stderr, "bench json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
		return
	}
	if *tsJSON != "" {
		if err := runTenancyScaleBenchJSON(*tsJSON, *tsSpeedup); err != nil {
			fmt.Fprintf(os.Stderr, "tenancy scale bench json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *tsJSON)
		return
	}
	if *fedJSON != "" {
		if err := runFederationBenchJSON(*fedJSON, *fedSuccess); err != nil {
			fmt.Fprintf(os.Stderr, "federation bench json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *fedJSON)
		return
	}
	if *admJSON != "" {
		if err := runAdmissionBenchJSON(*admJSON); err != nil {
			fmt.Fprintf(os.Stderr, "admission bench json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *admJSON)
		return
	}

	if *scal {
		cfg := experiment.ScalabilityConfig{Parallelism: *parallel}
		if !*quiet {
			cfg.Progress = func(s string) { fmt.Println(s) }
		}
		t, err := experiment.RunScalability(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scalability: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Println(t)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err == nil {
				path := filepath.Join(*csvDir, "scalability.csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err == nil {
					fmt.Printf("wrote %s\n", path)
				}
			}
		}
		return
	}

	var rateList []int
	for _, r := range strings.Split(*rates, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(r))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad rate %q: %v\n", r, err)
			os.Exit(2)
		}
		rateList = append(rateList, v)
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}
	cfg := experiment.Config{
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
	}
	if !*quiet {
		cfg.Progress = func(s string) { fmt.Println(s) }
	}
	start := time.Now()
	res, err := experiment.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiment: %v\n", err)
		os.Exit(1)
	}
	figures := []int{6, 7, 8, 9, 10, 11}
	if *figure != 0 {
		figures = []int{*figure}
	}
	for _, n := range figures {
		t, err := res.Figure(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Println(t)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, fmt.Sprintf("figure%d.csv", n))
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if *p95 {
		fmt.Println()
		fmt.Println(res.DelayP95Table())
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}
