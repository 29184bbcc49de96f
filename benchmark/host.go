package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// host is the provenance every result set carries. Two sets are
// comparable only when CPU model and core count agree.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	L2         string `json:"l2_cache"`
	L3         string `json:"l3_cache"`
	Kernel     string `json:"kernel"`
	GitCommit  string `json:"git_commit"`
	Note       string `json:"note"`
}

// loopbackNote states what the udp workloads do and do not measure.
const loopbackNote = "udp workloads cross the host's loopback interface, not a real link; np exceeds the core count, so no scaling-efficiency figure is reported"

func readHost() host {
	h := host{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		L2:         "unknown",
		L3:         "unknown",
		Kernel:     "unknown",
		GitCommit:  "unknown",
		Note:       loopbackNote,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	// run.sh passes the checkout's commit, when it is a git checkout.
	if c := os.Getenv("BENCH_GIT_COMMIT"); c != "" {
		h.GitCommit = c
	}
	caches, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range caches {
		level, err1 := os.ReadFile(filepath.Join(dir, "level"))
		size, err2 := os.ReadFile(filepath.Join(dir, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			h.L2 = strings.TrimSpace(string(size))
		case "3":
			h.L3 = strings.TrimSpace(string(size))
		}
	}
	return h
}
