package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// each pass of a run reports its own peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: the peak then covers the whole process
}

// peakRSSMB is the resident-set high-water mark (VmHWM) in MiB, falling
// back to getrusage's lifetime maxrss where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostCPU is the aggregate "cpu" line of /proc/stat: total and steal
// jiffies. Steal is time the hypervisor ran someone else while this host
// wanted the CPU — a noisy-neighbour run shows up here.
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var h hostCPU
		for i, s := range fields[1:] {
			v, _ := strconv.ParseUint(s, 10, 64)
			// guest and guest_nice (fields 9, 10) are already counted
			// in user and nice.
			if i < 8 {
				h.total += v
			}
			if i == 7 {
				h.steal = v
			}
		}
		return h
	}
	return hostCPU{}
}

// stealShare is the share of host CPU time stolen between two readings.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source under test: the git commit when run from the
// root of a work tree, otherwise the source digest the launcher computed.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	if d := os.Getenv("RINGPERF_SOURCE_DIGEST"); d != "" {
		return "src:" + d
	}
	return "unknown"
}

// runRecord is printed with every run so a result can be traced to the
// hardware, toolchain and source that produced it.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	StealShare float64 `json:"host_steal_share"`
	// ReportedSteal is the steal share of the cycles the end-to-end
	// figures come from.
	ReportedSteal float64 `json:"reported_steal_share"`
}

func newRunRecord(wl string, seed int64, seconds float64, trace bool) runRecord {
	return runRecord{
		Workload: wl, Seed: seed, Seconds: seconds, Trace: trace,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}
