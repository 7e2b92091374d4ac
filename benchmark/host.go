package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The measurement host is shared: other tenants slow it down by 10-80% in
// episodes lasting seconds to minutes, and the slowdown inflates CPU time
// as much as wall time. The benchmark therefore times a fixed calibration
// loop, which no change to the simulator can speed up or slow down, right
// before every pass and after the last one, and scales each pass's times by
// the host speed the two loops around it measured. README.md has the
// measurements behind this.

// calNominal is the calibration's wall time on the reference host when it
// is quiet, so scaled times read as seconds on that host (see README.md).
const calNominal = 0.050

// calIters is the length of one calibration loop, about calNominal.
const calIters = 20_000_000

// calSink keeps the compiler from deleting the calibration loops.
var calSink atomic.Uint64

// calibrate waits until only the goroutines of an idle process remain,
// then runs the calibration loop on every CPU the passes may use and
// returns its wall seconds. A pass that leaves goroutines running is an
// error: they would steal time from the calibration and make every later
// pass look faster.
func calibrate(idleGoroutines int) (float64, error) {
	runtime.GC()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > idleGoroutines; {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%d goroutines still running after a pass, %d when idle",
				runtime.NumGoroutine(), idleGoroutines)
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calSink.Add(calLoop(calIters))
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds(), nil
}

// calLoop is integer work shaped like a simulator's: dependent loads from
// a 256 KiB table, data-dependent branches and stores.
func calLoop(n int) uint64 {
	table := make([]uint32, 1<<16)
	for i := range table {
		table[i] = uint32(i) * 2654435761
	}
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := table[x&(1<<16-1)]
		if v&1 == 0 {
			acc += uint64(v)
		} else {
			acc ^= uint64(v) << 3
		}
		table[(x>>20)&(1<<16-1)] = uint32(acc)
	}
	return acc
}

// hostSpeed turns the calibrations before and after a timed span into the
// factor that scales the span's times to the quiet reference host.
func hostSpeed(before, after float64) float64 {
	return calNominal / ((before + after) / 2)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timed runs f and returns its wall and CPU seconds.
func timed(f func() error) (wall, cpu float64, err error) {
	c0, t0 := cpuSeconds(), time.Now()
	err = f()
	return time.Since(t0).Seconds(), cpuSeconds() - c0, err
}
