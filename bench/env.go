package main

import (
	"runtime"
	"syscall"
	"time"
)

// environment is carried by every result row so records from different
// machines are not compared blindly; CalibMS is the machine-speed
// yardstick (a fixed pure-Go loop).
type environment struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	CalibMS    float64 `json:"calib_ms"`
}

func newEnvironment(seed int64, size sizing) environment {
	steps := 40_000_000
	if size.Smoke {
		steps /= 100
	}
	return environment{
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		CalibMS:    calibrate(steps),
	}
}

var calibSink uint64

// calibrate times a fixed integer loop (xorshift64*; 40M steps in a
// real run) three times and returns the fastest in milliseconds.
func calibrate(steps int) float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < steps; i++ {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
		}
		calibSink += x * 2685821657736338717
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		if rep == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter brackets a measured phase: wall time, process CPU and heap
// allocation. ReadMemStats stops the world, so meters open and close
// only at phase boundaries, never per request.
type meter struct {
	start   time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
}

// usage is what a phase consumed.
type usage struct {
	WallS   float64
	CPUMS   float64
	AllocKB float64
	Mallocs float64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{cpu: cpuTime(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs, start: time.Now()}
}

func (m meter) stop() usage {
	wall := time.Since(m.start)
	cpu := cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		WallS:   wall.Seconds(),
		CPUMS:   float64(cpu) / float64(time.Millisecond),
		AllocKB: float64(ms.TotalAlloc-m.alloc) / 1024,
		Mallocs: float64(ms.Mallocs - m.mallocs),
	}
}
