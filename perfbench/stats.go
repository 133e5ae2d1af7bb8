package main

import (
	"slices"
	"syscall"
	"time"
)

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it: the 11th-largest value, its percentile, and how many samples
// lie beyond it. With ten samples or fewer it is the maximum, with none
// beyond.
func tail(xs []float64) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100, 0
	}
	return s[n-11], 100 * float64(n-10) / float64(n), 10
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// mix is splitmix64 over (seed, salt): the benchmark derives every
// generator seed and per-op seed from the workload seed through it, so one
// argument fixes all inputs and no two ops share a seed. The result is
// non-negative so that it survives the JSON and query-string encodings.
func mix(seed int64, salt int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(salt)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 2)
}
