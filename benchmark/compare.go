package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareFiles is the one tolerance-based comparator: it applies each
// end-to-end metric's bound to every workload, baseline A against
// candidate B, one row per pair, and returns an error when any row
// regressed.
func compareFiles(paths []string, force bool) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result sets: A.json B.json")
	}
	var sets [2]resultSet
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := &sets[0], &sets[1]
	if !force {
		if a.Host.CPUModel != b.Host.CPUModel || a.Host.NProc != b.Host.NProc {
			return fmt.Errorf("the sets come from different hosts (%q nproc=%d, %q nproc=%d); -force compares anyway",
				a.Host.CPUModel, a.Host.NProc, b.Host.CPUModel, b.Host.NProc)
		}
		if a.Seconds != b.Seconds {
			return fmt.Errorf("the sets measured for %g s and %g s per run and are not comparable; -force compares anyway", a.Seconds, b.Seconds)
		}
	}
	regressions := 0
	fmt.Printf("%-22s %-14s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "spread", "verdict")
	for _, w := range workloads {
		for _, def := range endToEndMetrics {
			va, vb := a.values(w.name, def.name), b.values(w.name, def.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(def, va, vb)
			if v.verdict == "REGRESSION" {
				regressions++
			}
			fmt.Printf("%-22s %-14s %14.6g %14.6g %+7.1f%% %7.0f%% %7.1f%%  %s\n",
				w.name, def.name, v.medianA, v.medianB, 100*v.worse, 100*def.bound, 100*v.spread, v.verdict)
		}
		attA, failA := a.failures(w.name)
		attB, failB := b.failures(w.name)
		if attA == 0 || attB == 0 {
			continue
		}
		shareA, shareB := float64(failA)/float64(attA), float64(failB)/float64(attB)
		verdict := "ok"
		if shareB > shareA {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-22s %-14s %14.6g %14.6g %8s %8s %8s  %s\n", w.name, "fail_share", shareA, shareB, "", "any", "", verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s)", regressions)
	}
	return nil
}

type judgement struct {
	medianA, medianB float64
	worse            float64 // how much worse B's median is, as a share of A's; negative = better
	spread           float64 // the wider of the two sets' own interquartile ranges, as a share of the median
	verdict          string
}

// judge applies one metric's bound. A difference beyond the bound is a
// regression; within it, the pair is "ok" only if both sets are steadier
// than the bound, and "unresolved" otherwise.
func judge(def metricDef, a, b []float64) judgement {
	j := judgement{medianA: median(a), medianB: median(b)}
	j.worse = (j.medianB - j.medianA) / j.medianA
	if def.better == "higher" {
		j.worse = -j.worse
	}
	j.spread = max(spread(a), spread(b))
	switch {
	case j.worse > def.bound:
		j.verdict = "REGRESSION"
	case j.spread > def.bound:
		j.verdict = "unresolved"
	default:
		j.verdict = "ok"
	}
	return j
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives; 0 for fewer than two values.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}
