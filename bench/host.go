package main

import (
	"bufio"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rasc.dev/rasc/internal/telemetry"
)

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss, KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memCounters are the runtime.MemStats fields the stream layer's allocation
// metrics are deltas of.
type memCounters struct {
	mallocs, bytes uint64
	gcCPU          float64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcCPU: m.GCCPUFraction}
}

// telemetrySnapshot reads the program's process-wide registry through its
// public exposition: series name (with labels) → value.
type telemetrySnapshot map[string]float64

func readTelemetry() telemetrySnapshot {
	out := make(telemetrySnapshot)
	sc := bufio.NewScanner(strings.NewReader(telemetry.Default().String()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every series of one metric family (all label values). A family
// name that is a prefix of another (x_total vs x_total_foo) is told apart
// by the character that follows it.
func (t telemetrySnapshot) sum(family string) float64 {
	total := 0.0
	for k, v := range t {
		if strings.HasPrefix(k, family) && (len(k) == len(family) || k[len(family)] == '{') {
			total += v
		}
	}
	return total
}

// since returns the growth of a family (or one labelled series when name
// carries its labels) between an earlier snapshot and this one.
func (t telemetrySnapshot) since(before telemetrySnapshot, name string) float64 {
	if strings.IndexByte(name, '{') >= 0 {
		return t[name] - before[name]
	}
	return t.sum(name) - before.sum(name)
}
