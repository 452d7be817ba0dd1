package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's own resource
// counters. Differences of two readings bracket one pass.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + sys
	maxRSS  int64         // KiB, monotone over the process's life
	allocB  uint64        // /gc/heap/allocs:bytes
	allocN  uint64        // /gc/heap/allocs:objects
	gcs     uint64        // /gc/cycles/total:gc-cycles
	gcCPU   float64       // /cpu/classes/gc/total:cpu-seconds
	schedLt *metrics.Float64Histogram
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	// A fresh slice per reading: metrics.Read may reuse a histogram's
	// memory, which would alias the two readings being compared.
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS:  ru.Maxrss,
		allocB:  s[0].Value.Uint64(),
		allocN:  s[1].Value.Uint64(),
		gcs:     s[2].Value.Uint64(),
		gcCPU:   s[3].Value.Float64(),
		schedLt: s[4].Value.Float64Histogram(),
	}
}

// runtimeCounters are the Go runtime's own counters over one pass.
type runtimeCounters struct {
	GCCycles       uint64  `json:"gc_cycles"`
	AllocObjects   uint64  `json:"alloc_objects"`
	GCCPUS         float64 `json:"gc_cpu_s"`
	SchedWaitP95Ms float64 `json:"sched_wait_ms_p95"`
}

func countersBetween(a, b usage) runtimeCounters {
	return runtimeCounters{
		GCCycles:       b.gcs - a.gcs,
		AllocObjects:   b.allocN - a.allocN,
		GCCPUS:         b.gcCPU - a.gcCPU,
		SchedWaitP95Ms: 1e3 * histQuantile(a.schedLt, b.schedLt, 0.95),
	}
}

// histQuantile returns the q-quantile of the samples added to a
// cumulative runtime/metrics histogram between readings a and b, as the
// upper edge of the bucket holding it (the lower edge when that is +Inf).
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// host is the fingerprint recorded next to every result, so figures
// from different machines are never compared by accident.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func fingerprint() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		h.Kernel = b.String()
	}
	return h
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
