package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples. It refuses a percentile with fewer than minBeyond samples beyond
// it — ten, everywhere but -short smoke runs: with fewer, the value is set
// by a handful of ops and moves between two runs of identical code.
func percentile(samples []float64, p float64, minBeyond int) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile: no samples")
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile: p must be in (0, 100), got %g", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile: p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is the plain middle value (mean of the two middles for even n); it
// has no sample-count floor and is used for repeated whole-phase timings.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples))
}

// ratio is a/b with 0 for an empty denominator, so a layer with no activity
// reports 0 rather than NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// allocKernel times a fixed allocation-bound kernel: 150 000 small slices
// put into a growing map, on a heap the process has not touched before. It
// is what a fresh process's set-up is made of — first-touch page faults,
// allocation, hashing — and none of the program's code, so its time follows
// the machine and nothing else: over 25 minutes on the reference box set-up
// time moved by 17–20 % and set-up ÷ this kernel by 4–5 %.
func allocKernel() time.Duration {
	t0 := time.Now()
	m := map[uint64][]byte{}
	for i := uint64(0); i < 150000; i++ {
		m[i*2654435761%1000003] = make([]byte, 24)
	}
	d := time.Since(t0)
	runtime.KeepAlive(m)
	return d
}

// calibrate times a fixed kernel — a million dependent reads chasing a
// pseudo-random cycle through a 64 MiB table, the cache-missing access
// pattern of n-gram scoring — and so measures the machine, not the program.
// The reference box drifts by ±15 % over tens of minutes with nothing else
// running; two runs' timings are comparable only if their calibrations are.
func calibrate() time.Duration {
	const size = 1 << 24
	// Mapped and unmapped here, outside the Go heap, so the table neither
	// moves the collector's pacing nor lingers in the process's memory.
	raw, err := syscall.Mmap(-1, 0, 4*size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0
	}
	defer syscall.Munmap(raw)
	table := unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), size)
	for i := range table {
		// An LCG step modulo a power of two with a ≡ 1 (mod 4) and odd c is
		// one cycle through all of [0, size).
		table[i] = (uint32(i)*1664525 + 1013904223) & (size - 1)
	}
	var x uint32
	t0 := time.Now()
	for i := 0; i < 1<<20; i++ {
		x = table[x]
	}
	d := time.Since(t0)
	if x == size { // never true; keeps the chase live
		return 0
	}
	return d
}
