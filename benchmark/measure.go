package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one timed region: wall clock, process CPU and allocator
// deltas between meter.begin and meter.end.
type sample struct {
	start      time.Time
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
}

// meter brackets the timed region of each repetition. Verification runs
// outside the bracket, so it costs the measured figures nothing.
type meter struct {
	samples []sample

	cur      sample
	cpu0     time.Duration
	m0, b0   uint64
	memStats runtime.MemStats
}

// begin opens a timed region. The collection first gives every
// repetition the same heap to start from.
func (m *meter) begin() {
	runtime.GC()
	runtime.ReadMemStats(&m.memStats)
	m.m0, m.b0 = m.memStats.Mallocs, m.memStats.TotalAlloc
	m.cpu0 = cpuTime()
	m.cur = sample{start: time.Now()}
}

// end closes the region begin opened and records it.
func (m *meter) end() {
	m.cur.wall = time.Since(m.cur.start)
	m.cur.cpu = cpuTime() - m.cpu0
	runtime.ReadMemStats(&m.memStats)
	m.cur.mallocs = m.memStats.Mallocs - m.m0
	m.cur.allocBytes = m.memStats.TotalAlloc - m.b0
	m.samples = append(m.samples, m.cur)
}

// last returns the most recent completed region.
func (m *meter) last() sample { return m.samples[len(m.samples)-1] }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocCount is the process's cumulative heap allocation count.
func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMB reads the process high-water RSS (VmHWM) in MiB; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// median returns the middle value (mean of the middle two) of xs, 0 when
// empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// measuredProcs is the GOMAXPROCS of measured runs: Go 1.24 ignores the
// cgroup CPU quota, so it is set explicitly, and capped so that boxes of
// different widths run the same configuration.
func measuredProcs() int { return min(runtime.NumCPU(), 4) }

// loadAvg1 is the 1-minute load average, -1 where unavailable.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printProvenance writes the environment a report came from, and warns —
// without failing — when the box is busier than it has cores.
func printProvenance(when string, procs int) {
	load := loadAvg1()
	fmt.Printf("# env %s: nproc=%d gomaxprocs=%d go=%s cpu=%q load1=%.2f\n",
		when, runtime.NumCPU(), procs, runtime.Version(), cpuModel(), load)
	if load > float64(runtime.NumCPU()) {
		fmt.Printf("# warning: 1-minute load %.2f exceeds nproc %d; timings will be noisy\n",
			load, runtime.NumCPU())
	}
}
