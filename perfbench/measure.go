package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far. It counts
// every thread of the process, so a 2-worker phase reads up to twice its
// wall time, and it excludes time stolen by the hypervisor.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the middle value of xs (mean of the two middle values
// for an even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// liveHeap forces a full collection and returns the live heap it found.
// HeapAlloc right after runtime.GC is exactly the marked live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapDelta returns after-before as a signed count, or an error when the
// difference is not positive or does not fit in an int64. A retained run
// state is never empty, so a non-positive delta means the measurement is
// broken (a collection freed more than the state allocated, or the
// baseline was taken too late); reporting it would hide that. Unsigned
// subtraction would wrap such a delta to ~1.8e19 bytes, and clamping it to
// zero would report a free run state: both are refused here.
func heapDelta(before, after uint64) (int64, error) {
	if before > math.MaxInt64 || after > math.MaxInt64 {
		return 0, fmt.Errorf("heap reading out of range (before %d, after %d)", before, after)
	}
	d := int64(after) - int64(before)
	if d <= 0 {
		return 0, fmt.Errorf("retained heap delta %d B is not positive (before %d, after %d)", d, before, after)
	}
	return d, nil
}

// peakTracker records the largest live heap seen at the end of any GC
// cycle between start and stop. A finalizer on a throwaway sentinel runs
// once per completed cycle and re-arms itself, so the sampling rides on
// collections the program triggers anyway and adds no polling thread.
type peakTracker struct {
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

// readLiveBytes returns the live heap marked by the last completed GC.
func readLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocBytes returns the bytes allocated on the heap since the process
// started. ReadMemStats flushes the per-P allocation caches, so unlike
// the runtime/metrics allocation counter it also counts the last few
// small allocations.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// startPeak forces a collection (so the state built before the call is
// counted once, exactly) and starts sampling.
func startPeak() *peakTracker {
	p := &peakTracker{}
	runtime.GC()
	p.note(readLiveBytes())
	p.arm()
	return p
}

func (p *peakTracker) note(v uint64) {
	p.mu.Lock()
	if v > p.peak {
		p.peak = v
	}
	p.mu.Unlock()
}

func (p *peakTracker) arm() {
	sentinel := new([16]byte)
	runtime.SetFinalizer(sentinel, func(*[16]byte) {
		p.mu.Lock()
		done := p.stopped
		p.mu.Unlock()
		if done {
			return
		}
		p.note(readLiveBytes())
		p.arm()
	})
}

// stop ends sampling and returns the peak. The last armed sentinel is
// collected by a later cycle and then does nothing.
func (p *peakTracker) stop() uint64 {
	p.note(readLiveBytes())
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	return p.peak
}

// cpuStat is the aggregate line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal uint64
	ok           bool
}

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		// guest and guest_nice (fields 9, 10) are already inside user/nice.
		if i < 8 {
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	st.ok = true
	return st
}

// stealShare returns the share of all CPU ticks between a and b that the
// hypervisor stole, and the stolen CPU-seconds (at the usual 100 ticks/s).
// ok is false when /proc/stat was unreadable.
func stealShare(a, b cpuStat) (share, seconds float64, ok bool) {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0, 0, false
	}
	ds := float64(b.steal - a.steal)
	return ds / float64(b.total-a.total), ds / 100, true
}
