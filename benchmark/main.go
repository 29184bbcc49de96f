// Command benchmark is the one benchmark of the broadcast stack: six
// named workloads, four bounded end-to-end metrics (plus the failure
// count), and a per-layer ledger from a separate traced run. README.md
// describes the method; BENCHMARK.json at the repository root is the
// contract it reports against.
//
//	bash benchmark/run.sh --workload lmsg-np8 --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -seed 1 -repeat 3 -o A.json     # every workload, both runs
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a single-workload run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		names      = flag.String("workload", "", "workload `name[,name]`; one name measures in this process, several (or none: all six, or -o, or -repeat) run the suite, each run a fresh child process")
		seed       = flag.Int64("seed", 1, "derives the payload bytes and the fault injector's seed")
		seconds    = flag.Float64("seconds", 15, "how long one run measures; results are comparable only at equal values")
		traced     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run (suite mode: the traced run follows the untraced ones)")
		repeat     = flag.Int("repeat", 1, "suite mode: runs per workload, so -compare can see each set's own spread")
		out        = flag.String("o", "", "suite mode: write the result set to this `file` (default benchmark/out/result-<seed>.json)")
		compare    = flag.Bool("compare", false, "compare two result sets given as arguments: A.json B.json")
		force      = flag.Bool("force", false, "with -compare: compare results of different hosts or run lengths anyway")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the workload process to `file`")
		execTrace  = flag.String("exectrace", "", "write a runtime/trace of the workload process to `file`")
		outDir     = flag.String("outdir", "benchmark/out", "`directory` for the traced run's span files and the suite's result set")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args(), *force)
	case *names != "" && !strings.Contains(*names, ",") && *out == "" && *repeat == 1:
		err = runOne(*names, *seed, *seconds, *traced == 1, *outDir, *cpuProfile, *execTrace)
	default:
		err = runSuite(*names, *seed, *seconds, *repeat, *traced == 1, *out, *outDir, *cpuProfile, *execTrace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints every metric
// by name with its unit, then the report line.
func runOne(name string, seed int64, seconds float64, traced bool, outDir, cpuProfile, execTrace string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	stop, err := startProfiles(cpuProfile, execTrace)
	if err != nil {
		return err
	}
	b := newBench(w, seed, outDir)
	var metrics map[string]metric
	var order []metricDef
	if traced {
		metrics, err = b.perLayer(seconds)
		order = perLayerMetrics
	} else {
		metrics, err = b.endToEnd(seconds)
		order = endToEndMetrics
	}
	stop()
	if err != nil {
		// The run cannot report its metrics; say why and leave the
		// driver without a result line.
		return err
	}
	for _, def := range order {
		m := metrics[def.name]
		fmt.Printf("  %-44s %16.6g %s\n", def.name, m.Value, m.Unit)
	}
	fmt.Printf("  %-44s %16.6g\n", "fail_share", float64(b.failed)/float64(b.attempted))
	line, err := json.Marshal(report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// startProfiles turns on the requested profilers, so any row of the
// ledger can be drilled into; the returned function stops them.
func startProfiles(cpuProfile, execTrace string) (func(), error) {
	var stops []func()
	stop := func() {
		for _, f := range stops {
			f()
		}
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if execTrace != "" {
		f, err := os.Create(execTrace)
		if err != nil {
			stop()
			return nil, err
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			stop()
			return nil, err
		}
		stops = append(stops, func() { rtrace.Stop(); f.Close() })
	}
	return stop, nil
}
