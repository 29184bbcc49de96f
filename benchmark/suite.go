package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// resultSet is what suite mode writes and -compare reads: the host, the
// settings that make two sets comparable, and one entry per child run.
type resultSet struct {
	Host    host        `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runResult `json:"runs"`
}

type runResult struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	report
}

// runSuite measures the named workloads (all six when names is empty),
// each run in a fresh child process so set-up time, peak RSS and the
// process-global bufpool statistics are the workload's own. The untraced
// run repeats `repeat` times; with traced set, one traced run per
// workload follows.
func runSuite(names string, seed int64, seconds float64, repeat int, traced bool, out, outDir, cpuProfile, execTrace string) error {
	var list []workload
	if names == "" {
		list = workloads
	} else {
		for _, name := range strings.Split(names, ",") {
			w, err := findWorkload(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			list = append(list, w)
		}
	}
	if repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Host: readHost(), Seed: seed, Seconds: seconds}
	child := func(w workload, traced bool) error {
		args := []string{
			"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-outdir", outDir,
		}
		if traced {
			args = append(args, "-trace", "1")
		}
		// One profile per child: the workload's name keeps them apart.
		if cpuProfile != "" {
			args = append(args, "-cpuprofile", cpuProfile+"."+w.name)
		}
		if execTrace != "" {
			args = append(args, "-exectrace", execTrace+"."+w.name)
		}
		var stdout bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		res := runResult{Workload: w.name, Traced: traced}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.report); err != nil {
			return fmt.Errorf("%s: report line: %w", w.name, err)
		}
		set.Runs = append(set.Runs, res)
		return nil
	}
	for i := 0; i < repeat; i++ {
		for _, w := range list {
			if err := child(w, false); err != nil {
				return err
			}
		}
	}
	if traced {
		for _, w := range list {
			if err := child(w, true); err != nil {
				return err
			}
		}
	}

	if out == "" {
		out = filepath.Join(outDir, fmt.Sprintf("result-%d.json", seed))
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	h := set.Host
	fmt.Printf("\nhost: %s, nproc=%d GOMAXPROCS=%d, %s, L2 %s, L3 %s, kernel %s, commit %s, seed %d, %.3g s per run\n%s\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.L2, h.L3, h.Kernel, h.GitCommit, seed, seconds, h.Note)
	fmt.Printf("%-22s", "median of runs")
	for _, def := range endToEndMetrics {
		fmt.Printf(" %14s", def.name)
	}
	fmt.Printf(" %10s\n", "fail_share")
	for _, w := range list {
		fmt.Printf("%-22s", w.name)
		for _, def := range endToEndMetrics {
			fmt.Printf(" %14.6g", median(set.values(w.name, def.name)))
		}
		attempted, failed := set.failures(w.name)
		fmt.Printf(" %10.3g\n", float64(failed)/float64(attempted))
	}
	fmt.Println("wrote", out)
	return nil
}

// values are the untraced runs' readings of one metric on one workload.
func (set *resultSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range set.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// failures sums attempted and failed broadcasts over a workload's runs.
func (set *resultSet) failures(workload string) (attempted, failed int) {
	for _, r := range set.Runs {
		if r.Workload == workload {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
		}
	}
	return attempted, failed
}
