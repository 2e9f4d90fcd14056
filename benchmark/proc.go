package main

// proc.go reads the process-level counters a segment is bracketed by:
// wall clock, user+system CPU (getrusage) and bytes allocated
// (runtime.MemStats). The load generator lives in this process, so its
// own CPU and allocations are inside every per-operation cost; the
// traced pass measures that share (loadgen.*, http.noop_*).

import (
	"runtime"
	"syscall"
	"time"
)

// counters is one reading of the process counters.
type counters struct {
	wall    time.Time
	cpu     time.Duration // user + system
	alloc   uint64        // cumulative bytes allocated
	mallocs uint64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		wall:    time.Now(),
		cpu:     cpuTime(),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

// cpuTime is the process's user+system CPU time so far. A failing
// getrusage (it cannot fail for RUSAGE_SELF with a valid pointer)
// reads as zero and would surface as a zero cpu metric.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// calibSink keeps the spin loop's result live so the compiler cannot
// drop the loop.
var calibSink uint64

// calibrate times a fixed pure-Go spin loop (an xorshift chain: no
// memory traffic, no calls, no allocation). Its duration depends on the
// host alone, so a segment whose calibration is slow was disturbed from
// outside; the per-layer metric host.calib_ns reports the best one.
func calibrate() time.Duration {
	const spins = 500_000
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < spins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	calibSink += x
	return d
}
