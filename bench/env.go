package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// envHeader is printed with every result and written into every span
// file, so no number is recorded without the machine it came from.
func envHeader(o options, opsTimed int) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"cpu":        cpuModel(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"ops_timed":  opsTimed,
		"trace":      o.trace,
		"smoke":      o.smoke,
		// Every timed operation runs after the count-based warm-up:
		// caches filled, MRAM pages touched, weights resident.
		"state": "warm",
	}
}

// commit is the checkout's revision: from the build's VCS stamp, else
// from git, else "unknown" (the driver's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
