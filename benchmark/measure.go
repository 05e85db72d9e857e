package main

// Measurement primitives: the monotonic clock, the latency histogram, the
// segmented measured phase with its interference trim, and the process
// counters (allocations, GC, CPU time, /proc/self/io) read around a phase.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

var clockBase = time.Now()

// now returns monotonic nanoseconds since process start: one clock read,
// where time.Now would make two.
func now() int64 { return int64(time.Since(clockBase)) }

// hist is a log-linear latency histogram over nanoseconds: 64 sub-buckets
// per power of two, so a bucket is at most 1.6 % wide.
type hist struct {
	n uint64
	b [histBuckets]uint32
}

const (
	histSubBits = 6
	histMaxBits = 40 // values are clamped below 2^40 ns (18 minutes)
	histBuckets = (histMaxBits - histSubBits + 1) << histSubBits
)

func histBucket(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	e := bits.Len64(v) - histSubBits - 1
	return e<<histSubBits + int(v>>e)
}

// histBounds returns the lowest value and the width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < 1<<histSubBits {
		return float64(i), 1
	}
	e := i>>histSubBits - 1
	m := uint64(i&(1<<histSubBits-1) | 1<<histSubBits)
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.b[histBucket(uint64(ns))]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds, interpolated inside its
// bucket, and the number of samples above it.
func (h *hist) quantile(q float64) (ns float64, beyond uint64) {
	if h.n == 0 {
		return 0, 0
	}
	rank := q * float64(h.n-1)
	var cum uint64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if float64(cum+uint64(c)) > rank {
			lo, width := histBounds(i)
			return lo + width*(rank-float64(cum)+0.5)/float64(c), h.n - 1 - uint64(rank)
		}
		cum += uint64(c)
	}
	return 0, 0
}

// tailQuantile picks the highest of p99/p95/p90 that leaves at least ten
// samples beyond it, so the reported tail is never one or two outliers.
func (h *hist) tailQuantile() (q float64, ns float64, beyond uint64) {
	for _, q = range []float64{0.99, 0.95, 0.90} {
		if ns, beyond = h.quantile(q); beyond >= 10 {
			break
		}
	}
	return q, ns, beyond
}

// sampleLog keeps one latency per operation of a phase, in nanoseconds, in
// memory mapped outside the Go heap: several million samples inside the heap
// would double it, and the collector, pacing itself by heap size, would then
// run half as often as it does for a program that is not being measured.
type sampleLog struct {
	mem []byte
	ns  []uint32
	n   int
}

// mapOffHeap maps n zeroed elements of T, which must hold no pointers,
// outside the Go heap; only pages written to are ever backed.
func mapOffHeap[T any](n int) (mem []byte, elems []T, err error) {
	var zero T
	mem, err = syscall.Mmap(-1, 0, max(n, 1)*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("mapping memory outside the heap: %w", err)
	}
	return mem, unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), nil
}

func newSampleLog(samples int) (*sampleLog, error) {
	mem, ns, err := mapOffHeap[uint32](samples)
	if err != nil {
		return nil, err
	}
	return &sampleLog{mem: mem, ns: ns}, nil
}

func (l *sampleLog) close() { syscall.Munmap(l.mem) }

// total is the time of all the samples.
func (l *sampleLog) total() (ns int64) {
	for _, v := range l.ns[:l.n] {
		ns += int64(v)
	}
	return ns
}

func (l *sampleLog) add(ns int64) {
	l.ns[l.n] = uint32(min(max(ns, 0), math.MaxUint32))
	l.n++
}

// A measured phase is cut into phaseSegments segments of equal operation
// count, and the timing metrics are computed from what is left when the
// droppedShare slowest of them are dropped: 7 of 10. A segment is a few
// seconds of work with the same mix of operations as every other. On a shared
// box interference comes in bursts and only ever adds time, so a segment that
// took much longer than its siblings met a neighbour, not a slower program.
const (
	phaseSegments = 10
	droppedShare  = 0.3
)

// phaseTiming is what the timing metrics are computed from: the kept
// segments' operations, time and latency histogram.
type phaseTiming struct {
	segments, kept int
	ops            int
	ns             int64
	h              hist
}

// summarize drops the slowest droppedShare of the segments of samples
// (segOps samples each) for which use returns true and sums the others up:
// their operations, their time and every one of their samples.
func summarize(samples []uint32, segOps int, use func(seg int) bool) *phaseTiming {
	type seg struct {
		first int
		ns    int64
	}
	var segs []seg
	for k := 0; (k+1)*segOps <= len(samples); k++ {
		if !use(k) {
			continue
		}
		s := seg{first: k * segOps}
		for _, ns := range samples[s.first:][:segOps] {
			s.ns += int64(ns)
		}
		segs = append(segs, s)
	}
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].ns < segs[j].ns })
	pt := &phaseTiming{segments: len(segs)}
	for _, s := range segs[:len(segs)-int(droppedShare*float64(len(segs)))] {
		pt.kept++
		pt.ops += segOps
		pt.ns += s.ns
		for _, ns := range samples[s.first:][:segOps] {
			pt.h.record(int64(ns))
		}
	}
	return pt
}

func (pt *phaseTiming) opsPerSec() float64 {
	if pt.ns == 0 {
		return 0
	}
	return float64(pt.ops) / (float64(pt.ns) / 1e9)
}

// segmentSeed derives the generator seed of segment k from the run seed.
func segmentSeed(seed int64, k int) int64 {
	return seed*1_000_003 + int64(k)*7919 + 17
}

// phase runs segments first .. first+n-1 of w's stream, each of len(buf)
// operations, logging every operation's latency. A segment's operations are
// generated from (seed, segment number) into buf before its first operation
// is timed; while the clock runs the engine sees only generated inputs. The
// segments for which traced returns true are recorded by rec.
func phase(w workload, seed int64, first, n int, buf []op, traced func(k int) bool, rec *recorder, log *sampleLog) (attempted, failed int) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < n; k++ {
		var r *recorder
		if traced(k) {
			r = rec
		}
		rng.Seed(segmentSeed(seed, first+k))
		w.gen(rng, buf)
		t := now()
		for i := range buf {
			id := r.beginOp(buf[i].class)
			if !w.do(&buf[i], r) {
				failed++
			}
			r.end(id)
			t2 := now()
			log.add(t2 - t)
			t = t2
		}
		attempted += len(buf)
	}
	return attempted, failed
}

func untraced(int) bool { return false }

// tracedSlice reports whether slice k of a traced pass is traced: every
// other one, so that one pass yields the tracing overhead.
func tracedSlice(k int) bool { return k%2 == 1 }

// procCounters are the process-wide counters read around a phase.
type procCounters struct {
	mallocs, allocBytes uint64
	numGC               uint32
	gcPauseNS           uint64
	cpuNS               int64
	mutexWaitS          float64
	wchar, syscr, syscw uint64
}

func readProcCounters() procCounters {
	var c procCounters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.numGC, c.gcPauseNS = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	s := []runtimemetrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	runtimemetrics.Read(s)
	if s[0].Value.Kind() == runtimemetrics.KindFloat64 {
		c.mutexWaitS = s[0].Value.Float64()
	}
	// /proc/self/io is absent on some kernels; the counters then stay 0.
	if b, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, _ := strings.Cut(line, ": ")
			n, _ := strconv.ParseUint(v, 10, 64)
			switch k {
			case "wchar":
				c.wchar = n
			case "syscr":
				c.syscr = n
			case "syscw":
				c.syscw = n
			}
		}
	}
	return c
}

// liveHeapMiB forces a collection and returns the heap that survives it. It
// collects twice, because a sync.Pool gives its contents up only at the
// second cycle.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// probeRounds is the number of timed rounds behind every probe (a variable
// only so that the tests can make one).
var probeRounds = 15

// probeAll times each of fs as rounds of n calls, interleaving the
// functions round by round so that drift in the host's speed falls on all of
// them alike, and returns each one's median nanoseconds per call. It is the
// layer ladder's instrument for calls too short to time singly.
func probeAll(n int, fs ...func(i int)) []float64 {
	rounds := make([][]float64, len(fs))
	for r := 0; r < probeRounds; r++ {
		for k, f := range fs {
			t := now()
			for i := 0; i < n; i++ {
				f(i)
			}
			rounds[k] = append(rounds[k], float64(now()-t)/float64(n))
		}
	}
	out := make([]float64, len(fs))
	for k := range fs {
		out[k] = median(rounds[k])
	}
	return out
}

func probe(n int, f func(i int)) float64 { return probeAll(n, f)[0] }

// probeEach times n calls of each of fs one by one, taking turns call by
// call, and returns each one's median nanoseconds: the instrument for calls
// of microseconds, whose median is to be compared with a median of spans.
func probeEach(n int, fs ...func(i int)) []float64 {
	ns := make([][]float64, len(fs))
	for i := 0; i < n; i++ {
		for k, f := range fs {
			t := now()
			f(i)
			ns[k] = append(ns[k], float64(now()-t))
		}
	}
	out := make([]float64, len(fs))
	for k := range fs {
		out[k] = median(ns[k])
	}
	return out
}

// firstErr keeps the first error of a series of calls that are timed, not
// inspected one by one.
type firstErr struct{ err error }

func (f *firstErr) keep(e error) {
	if e != nil && f.err == nil {
		f.err = e
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
