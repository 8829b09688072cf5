package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// calibSink keeps the calibration loop's result observable so the
// compiler cannot drop the work.
var calibSink float64

// hostCalibMs times a fixed amount of arithmetic that touches no
// repository code: a xorshift stream folded into a floating-point
// recurrence. Its duration moves only with the host (frequency, steal
// time, co-tenants), so a reading taken before and after every run tells
// host drift apart from program variance. Returns the median of five
// repetitions in milliseconds.
func hostCalibMs() float64 {
	const reps, iters = 5, 2_000_000
	ms := make([]float64, reps)
	for r := range ms {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		acc := 1.0
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc = acc*0.999999 + float64(x>>40)*1e-9
		}
		calibSink += acc
		ms[r] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	return ms[reps/2]
}

// memCalibWords is the working set of hostMemCalibMs: 32 MiB, beyond the
// host's caches, so nearly every read goes to memory.
const memCalibWords = 4 << 20

// hostMemCalibMs times a fixed stream of random reads over memCalibWords,
// the memory-side twin of hostCalibMs. On a host whose cores are shared,
// co-tenants load the memory system far more than the ALUs: serving cost
// can move by a fifth while hostCalibMs stays flat, and this reading
// moves with it. Returns the median of five repetitions in milliseconds.
func hostMemCalibMs() float64 {
	const reps, reads = 5, 500_000
	buf := make([]uint64, memCalibWords)
	for i := range buf {
		buf[i] = uint64(i)
	}
	ms := make([]float64, reps)
	for r := range ms {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		var sum uint64
		for i := 0; i < reads; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sum += buf[x&(memCalibWords-1)]
		}
		calibSink += float64(sum)
		ms[r] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	return ms[reps/2]
}

// hostStealSeconds reads the machine's steal time from /proc/stat: the
// time, summed over vCPUs, the hypervisor ran something else while a
// vCPU of this machine wanted to run. On this benchmark's shared host the
// runs whose rates collapsed were the runs that accrued steal.
func hostStealSeconds() (float64, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, fmt.Errorf("steal field of /proc/stat: %w", err)
	}
	return ticks / 100, nil // USER_HZ
}

// stealPct is the share of the machine's vCPU time stolen between two
// hostStealSeconds readings wall seconds apart.
func stealPct(before, after, wall float64) float64 {
	return 100 * (after - before) / (wall * float64(runtime.NumCPU()))
}

// quantile returns the q-quantile of sorted (nearest rank), NaN when
// empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs (which it sorts in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
