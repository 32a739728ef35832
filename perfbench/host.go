package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"
)

// hostNow reads the host's wall clock. Host time is what the benchmark
// measures, so every timing in it reads the clock here.
func hostNow() time.Time {
	return time.Now() //lint:allow wallclock the benchmark measures host time, not simulated time
}

// Host identifies the machine a result was measured on. Timings from
// two different hosts are not comparable; compare refuses to diff them.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// hostStamp reads the current host's identity.
func hostStamp() Host {
	return Host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where the file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// kernelRelease returns the running kernel's release string.
func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sameHost reports whether two stamps describe the same measurement
// environment, naming the first field that differs.
func sameHost(a, b Host) (bool, string) {
	switch {
	case a.CPUModel != b.CPUModel:
		return false, "cpu_model"
	case a.NumCPU != b.NumCPU:
		return false, "num_cpu"
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return false, "gomaxprocs"
	case a.GoVersion != b.GoVersion:
		return false, "go_version"
	case a.Kernel != b.Kernel:
		return false, "kernel"
	case a.GOOS != b.GOOS || a.GOARCH != b.GOARCH:
		return false, "platform"
	}
	return true, ""
}
