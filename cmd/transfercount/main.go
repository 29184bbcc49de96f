// Command transfercount tabulates the ring-allgather transfer counts of
// the native (enclosed) and tuned (non-enclosed) algorithms — the
// Section IV claims of the paper (P=8: 56 -> 44, P=10: 90 -> 75),
// generalized over P. With -measure, the counts are additionally
// verified by executing both broadcasts on the real engine under the
// traffic tracer and comparing observed message counts against the
// analytic model.
//
// Usage:
//
//	transfercount
//	transfercount -p 8,10,16,129 -n 65536 -measure
//	transfercount -algo binomial,chain,scatter-ring-allgather-opt
//	transfercount -algo smp-opt,opt,auto -cores 4     # -algo also takes native|opt|auto|auto-opt
//	transfercount -tune-table table.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/tune"
)

func main() {
	var (
		pFlag       = flag.String("p", "2,4,8,10,16,32,64,129,256", "comma-separated process counts")
		nFlag       = flag.Int("n", 1<<20, "broadcast size in bytes for the byte columns")
		measureFlag = flag.Bool("measure", false, "verify counts by traced execution on the real engine (P <= 64)")
		algoFlag    = flag.String("algo", "", "comma-separated algorithms (registry names, native|opt, auto|auto-opt): tabulate whole-broadcast schedule traffic instead of the ring-phase table")
		segFlag     = flag.Int("seg", 0, "segment size for segmented algorithms (0 = default)")
		tableFlag   = flag.String("tune-table", "", "JSON tuning table: show the dispatch decision and its traffic per process count")
		coresFlag   = flag.Int("cores", 0, "cores per node of the blocked placement -algo and -tune-table schedules are generated for (0 = single node)")
	)
	flag.Parse()

	var ps []int
	for _, tok := range strings.Split(*pFlag, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || p < 1 {
			fmt.Fprintf(os.Stderr, "transfercount: bad process count %q\n", tok)
			os.Exit(2)
		}
		ps = append(ps, p)
	}

	if *algoFlag != "" {
		if err := countAlgos(*algoFlag, ps, *nFlag, *segFlag, *coresFlag); err != nil {
			fmt.Fprintf(os.Stderr, "transfercount: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *tableFlag != "" {
		if err := countTable(*tableFlag, ps, *nFlag, *coresFlag); err != nil {
			fmt.Fprintf(os.Stderr, "transfercount: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("# ring allgather transfer counts, n=%d bytes (analytic model)\n", *nFlag)
	fmt.Print(bench.FormatCounts(bench.TransferCounts(ps, *nFlag)))

	if !*measureFlag {
		return
	}
	fmt.Println("\n# traced execution on the real engine (ring phase only):")
	fmt.Printf("%-6s %12s %12s %8s\n", "P", "native-msgs", "tuned-msgs", "match")
	for _, p := range ps {
		if p > 64 {
			fmt.Printf("%-6d %12s %12s %8s\n", p, "-", "-", "skipped")
			continue
		}
		nat, err := measureRing(tune.RingNative, p, *nFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "transfercount: %v\n", err)
			os.Exit(1)
		}
		opt, err := measureRing(tune.RingOpt, p, *nFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "transfercount: %v\n", err)
			os.Exit(1)
		}
		wantNat := core.RingTrafficNative(p, *nFlag).Messages
		wantOpt := core.RingTrafficTuned(p, *nFlag).Messages
		match := "OK"
		if int(nat) != wantNat || int(opt) != wantOpt {
			match = fmt.Sprintf("MISMATCH (want %d/%d)", wantNat, wantOpt)
		}
		fmt.Printf("%-6d %12d %12d %8s\n", p, nat, opt, match)
	}
}

func measureRing(algo string, p, n int) (int64, error) {
	col := trace.NewCollector()
	err := engine.Run(p, func(c mpi.Comm) error {
		tc := col.Wrap(c)
		buf := make([]byte, n)
		if tc.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		return collective.Broadcast(tc, buf, 0, collective.Options{Algorithm: algo})
	})
	if err != nil {
		return 0, err
	}
	return col.Stats().ByTag[core.TagRing].Messages, nil
}

// placed is the blocked placement of p ranks the tables assume.
func placed(p, cores int) *topology.Map {
	if cores <= 0 {
		return topology.SingleNode(p)
	}
	return topology.Blocked(p, cores)
}

// printTraffic prints one table row: the decision's whole-broadcast
// schedule traffic on topo, or why it has none there.
func printTraffic(d tune.Decision, topo *topology.Map, n int) {
	pr, err := collective.Schedule(d, topo, 0, n)
	if err != nil {
		fmt.Printf("%-6d %-30s %12s %s\n", topo.NP(), d.Algorithm, "n/a", err)
		return
	}
	st := pr.Stats()
	fmt.Printf("%-6d %-30s %12d %14d\n", topo.NP(), d.Algorithm, st.Messages, st.Bytes)
}

// countAlgos tabulates total schedule traffic (all phases, not just the
// ring) for the named algorithms, via their generated programs.
func countAlgos(list string, ps []int, n, seg, cores int) error {
	algos, err := bench.ParseAlgos(list)
	if err != nil {
		return err
	}
	fmt.Printf("# whole-broadcast schedule traffic, n=%d bytes\n", n)
	fmt.Printf("%-6s %-30s %12s %14s\n", "P", "algorithm", "messages", "bytes")
	for _, p := range ps {
		topo := placed(p, cores)
		for _, a := range algos {
			a.SegSize = seg
			printTraffic(a.Decide(tune.EnvOf(n, p, topo)), topo, n)
		}
	}
	return nil
}

// countTable shows, per process count, which algorithm a tuning table
// dispatches at size n and the traffic of that schedule. The assumed
// placement (cores per node) matters for tables with placement-keyed
// rules and for topology-composed schedules; decisions are resolved
// exactly as a broadcast on that placement would resolve them.
func countTable(path string, ps []int, n, cores int) error {
	table, err := tune.LoadTable(path)
	if err != nil {
		return err
	}
	tuner := tune.TableTuner{Table: table, Fallback: tune.MPICH3{}}
	fmt.Printf("# tuning-table dispatch, table %q, n=%d bytes\n", table.Name, n)
	fmt.Printf("%-6s %-30s %12s %14s\n", "P", "decision", "messages", "bytes")
	for _, p := range ps {
		topo := placed(p, cores)
		printTraffic(tuner.Decide(tune.EnvOf(n, p, topo)), topo, n)
	}
	return nil
}
