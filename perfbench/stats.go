package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place). It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[nearestRank(len(xs), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples. The
// small tolerance keeps p/100·n from rounding up past an exact integer.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// median returns the median of xs without modifying it (the mean of the
// two middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencySummary is the end-to-end view of a set of operation latencies:
// the median and the 99th percentile, with the sample count. The 99th
// percentile rests on at least ten samples beyond it only from 1000
// samples on; tailOK says whether it does.
type latencySummary struct {
	N        int
	P50, P99 float64 // seconds
}

func summarize(lat []float64) latencySummary {
	s := append([]float64(nil), lat...)
	return latencySummary{N: len(s), P50: percentile(s, 50), P99: percentile(s, 99)}
}

// tailOK reports whether at least ten samples lie beyond the p-th
// percentile of n samples.
func tailOK(n int, p float64) bool { return n-nearestRank(n, p) >= 10 }

func (l latencySummary) String() string {
	note := ""
	if !tailOK(l.N, 99) {
		note = ", fewer than 10 samples beyond p99"
	}
	return fmt.Sprintf("p50 %.3f ms, p99 %.3f ms (n=%d%s)", 1e3*l.P50, 1e3*l.P99, l.N, note)
}

// rssSampler polls a process's resident set size and keeps the maximum.
// Polling catches the peak of the sampled window only, not set-up or
// verification before and after it.
type rssSampler struct {
	path string
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak int64 // bytes
}

// startRSS samples /proc/<pid>/statm every 10 ms until stopRSS. pid 0
// means this process.
func startRSS(pid int) *rssSampler {
	path := "/proc/self/statm"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/statm", pid)
	}
	s := &rssSampler{path: path, stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile(s.path)
	if err != nil {
		return // the process has exited; keep the peak seen so far
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	rss := pages * int64(os.Getpagesize())
	s.mu.Lock()
	if rss > s.peak {
		s.peak = rss
	}
	s.mu.Unlock()
}

// stopRSS ends sampling, waits for the poller to exit and returns the peak
// in MB.
func (s *rssSampler) stopRSS() float64 {
	s.sample()
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak) / (1 << 20)
}

// setupRuns is how many times each run sets its workload up; setup_s is
// the median.
const setupRuns = 15

// setupSamples times fn n times.
func setupSamples(n int, fn func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// measurePasses runs pass at least once, and again while another pass at
// the last one's pace still fits in d. Before each pass it collects
// garbage and returns freed memory to the OS, so every pass starts from
// the same heap, as a fresh process would; it samples this process's
// resident set over each pass and returns the per-pass peaks in MB.
func measurePasses(d time.Duration, pass func(i int) error) ([]float64, error) {
	var peaks []float64
	start, last := time.Now(), time.Duration(0)
	for i := 0; i == 0 || time.Since(start)+last <= d; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		rss := startRSS(0)
		err := pass(i)
		peaks = append(peaks, rss.stopRSS())
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
	}
	return peaks, nil
}

// goRuntime is a snapshot of the Go runtime counters the per-layer report
// uses, or the difference between two snapshots.
type goRuntime struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	allocs          uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() goRuntime {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goRuntime{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		allocs:     s[3].Value.Uint64(),
	}
}

func (g goRuntime) minus(o goRuntime) goRuntime {
	return goRuntime{g.gcCPU - o.gcCPU, g.totalCPU - o.totalCPU, g.allocBytes - o.allocBytes, g.allocs - o.allocs}
}

func (g goRuntime) plus(o goRuntime) goRuntime {
	return goRuntime{g.gcCPU + o.gcCPU, g.totalCPU + o.totalCPU, g.allocBytes + o.allocBytes, g.allocs + o.allocs}
}

// runtimeLayer converts counter deltas into the runtime.* per-layer
// metrics.
func runtimeLayer(d goRuntime) map[string]float64 {
	frac := 0.0
	if d.totalCPU > 0 {
		frac = d.gcCPU / d.totalCPU
	}
	return map[string]float64{
		"runtime.gc_cpu_frac": frac,
		"runtime.alloc_bytes": float64(d.allocBytes),
		"runtime.allocs":      float64(d.allocs),
	}
}

// stamp identifies the machine and code a result was measured on.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newStamp(commit string) stamp {
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
