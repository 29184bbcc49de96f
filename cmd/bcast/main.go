// Command bcast is the module's one tool. Each subcommand owns exactly the
// flags that act on it (internal/cli defines them once and validates
// them); run 'bcast -h' for the subcommands and 'bcast <subcommand> -h'
// for a subcommand's flags.
//
//	bcast bench -np 16 -algo native,opt -min 524288 -max 4194304
//	bcast bench -persistent -np 64 -algo scatter-ring-allgather-opt-seg -seg 8192 -iters 1000
//	bcast bench -np 64 -exec pooled -algo binomial -metrics -timeline trace.json
//	bcast spans trace.json
//	bcast tune engine -np 4,8 -placements blocked:4 -o table.json -samples samples.json
//	bcast tune sim -candidates mpich -segs 8192,65536 -placements blocked:24,round-robin:24
//	bcast crosscheck -np 4,8
//	bcast compare -tune-table table.json -np 16,64,129
//	bcast figs -fig 6a -nocontention
//	bcast curves -algo smp-opt,opt,auto -np 48
//	bcast count -algo smp-opt,opt,auto -cores 4
//	bcast ring -np 8,10,16,129 -n 65536 -measure
//	bcast viz -np 10 -algo opt -root 3
//	bcast soak -np 8 -procs 4 -drop 0.05 -dup 0.02 -reorder 0.02 -metrics
//
// bench is the user-level micro-benchmark of the paper's Section V on the
// real in-process engine: all ranks synchronize with a barrier, the
// broadcast repeats -iters times, they synchronize again, and the
// bandwidth (base-2 MB/s) from the root's clock is reported per message
// size. -algo native against -algo opt reproduces the paper's
// MPI_Bcast_native / MPI_Bcast_opt comparison at laptop scale.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
)

// runners maps each cli.Commands entry to what executes it.
var runners = map[string]func(cfg *cli.Config, stdout io.Writer) error{
	"algos":       runAlgos,
	"bench":       runBench,
	"tune engine": runTuneEngine,
	"tune sim":    runTuneSim,
	"crosscheck":  runCrossCheck,
	"figs":        runFigs,
	"curves":      runCurves,
	"compare":     runCompare,
	"count":       runCount,
	"ring":        runRing,
	"viz":         runViz,
	"spans":       runSpans,
	"soak":        runSoak,
	"soak-child":  runSoakChild,
}

// run executes one command line and returns the process exit status: 0 on
// success or requested help, 2 for a bad command line, 1 when the command
// itself fails.
func run(args []string, stdout, stderr io.Writer) int {
	cmd, cfg, err := cli.Parse(args, stderr)
	if err == nil {
		err = runners[cmd.Name](cfg, stdout)
	}
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, cli.ErrUsage):
		fmt.Fprintln(stderr, "bcast:", err)
		return 2
	default:
		fmt.Fprintf(stderr, "bcast %s: %v\n", cmd.Name, err)
		return 1
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
