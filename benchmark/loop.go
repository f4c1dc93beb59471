package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// inflightCap bounds open-loop operations in flight; an arrival beyond it is
// not sent and counts as failed. It is a second of arrivals at the highest
// rate any workload uses: a 100 ms stall of the whole machine, which a shared
// 2-core box shows every few runs, must not turn into failed operations.
const inflightCap = 1024

// opFunc performs operation i on behalf of client c (0 ≤ c < clients) and
// reports whether it succeeded. It is safe for concurrent use as long as at
// most one call per client runs at a time in closed-loop phases.
type opFunc func(c int, i int64) bool

// median returns the middle value of xs (mean of the two middle ones).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first and third quartile of xs.
func quartiles(xs []float64) (q1, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.75)
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is the process-wide resource reading a segment's cost is the
// difference of.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// segment is what one closed-loop segment measured.
type segment struct {
	ops, failed int64
	wall, cpu   time.Duration
	mallocs     uint64
	bytes       uint64
	lat         []float64 // per-op wall time, ms
}

func (s segment) opsPerSec() float64 { return float64(s.ops) / s.wall.Seconds() }
func (s segment) cpuUsPerOp() float64 {
	return float64(s.cpu) / float64(time.Microsecond) / float64(s.ops)
}
func (s segment) allocsPerOp() float64 { return float64(s.mallocs) / float64(s.ops) }
func (s segment) bytesPerOp() float64  { return float64(s.bytes) / float64(s.ops) }

// closedSegment runs clients goroutines, each issuing its next operation
// when the previous one completes, until stop says so. Operation indices
// come from next, shared by every segment of a workload so the seeded
// request order continues across segments.
func closedSegment(op opFunc, clients int, next *atomic.Int64, stop func() bool) segment {
	var (
		seg    segment
		done   atomic.Int64
		failed atomic.Int64
		mu     sync.Mutex
		wg     sync.WaitGroup
	)
	before := readUsage()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []float64
			for !stop() {
				start := time.Now()
				if !op(c, next.Add(1)-1) {
					failed.Add(1)
				}
				lat = append(lat, float64(time.Since(start))/float64(time.Millisecond))
				done.Add(1)
			}
			mu.Lock()
			seg.lat = append(seg.lat, lat...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	after := readUsage()
	seg.ops, seg.failed = done.Load(), failed.Load()
	seg.wall, seg.cpu = after.at.Sub(before.at), after.cpu-before.cpu
	seg.mallocs, seg.bytes = after.mallocs-before.mallocs, after.bytes-before.bytes
	return seg
}

// forDuration stops a closed segment once d has passed.
func forDuration(d time.Duration) func() bool {
	deadline := time.Now().Add(d)
	return func() bool { return !time.Now().Before(deadline) }
}

// forOps stops a closed segment once n operations have been started.
func forOps(n int64) func() bool {
	var started atomic.Int64
	return func() bool { return started.Add(1) > n }
}

// openSegment is what one open-loop segment measured.
type openSegment struct {
	attempted, failed int64
	lat               []float64 // ms from intended send time, completed ops only
	late              []float64 // ms the generator sent after the intended time
	maxInflight       int64
}

// openLoop sends operations at a fixed rate for d regardless of completions.
// Operation k is due at start + k/rate and is timed from then, so a stall
// shows as latency on every operation queued behind it.
func openLoop(op opFunc, clients int, next *atomic.Int64, rate float64, d time.Duration) openSegment {
	n := int(rate * d.Seconds())
	seg := openSegment{lat: make([]float64, 0, n), late: make([]float64, 0, n)}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		inflight atomic.Int64
		failed   atomic.Int64
	)
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		seg.late = append(seg.late, float64(time.Since(due))/float64(time.Millisecond))
		seg.attempted++
		now := inflight.Add(1)
		if now > inflightCap {
			inflight.Add(-1)
			failed.Add(1)
			continue
		}
		if now > seg.maxInflight {
			seg.maxInflight = now
		}
		i := next.Add(1) - 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := op(int(i%int64(clients)), i)
			ms := float64(time.Since(due)) / float64(time.Millisecond)
			inflight.Add(-1)
			if !ok {
				failed.Add(1)
				return
			}
			mu.Lock()
			seg.lat = append(seg.lat, ms)
			mu.Unlock()
		}()
	}
	wg.Wait()
	seg.failed = failed.Load()
	return seg
}

// heapLiveMiB is HeapAlloc after a forced collection.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
