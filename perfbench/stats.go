package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"rmtk/internal/core"
)

// reservoir keeps a uniform sample of at most cap durations (ns) plus the
// exact count and sum of everything offered to it.
type reservoir struct {
	xs   []int64
	cap  int
	seen int64
	sum  int64
	rng  uint64
}

// newReservoir returns a reservoir of capacity max. prealloc of its slots
// are allocated up front, so that a measured window does not grow the heap
// by an amount that depends on how many calls it made.
func newReservoir(prealloc, max int, seed uint64) *reservoir {
	return &reservoir{xs: make([]int64, 0, prealloc), cap: max, rng: seed | 1}
}

func (r *reservoir) add(x int64) {
	r.seen++
	r.sum += x
	if len(r.xs) < r.cap {
		r.xs = append(r.xs, x)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % uint64(r.seen); j < uint64(r.cap) {
		r.xs[j] = x
	}
}

// merge adds o's samples. Both reservoirs are uniform over their own
// inputs; the benchmark merges reservoirs of goroutines that ran the same
// loop for the same time, so the union stays close to uniform.
func (r *reservoir) merge(o *reservoir) {
	r.seen += o.seen
	r.sum += o.sum
	r.xs = append(r.xs, o.xs...)
	r.cap = max(r.cap, len(r.xs))
}

// quantile is the q-quantile of the kept samples by linear interpolation
// between order statistics (0 when empty).
func (r *reservoir) quantile(q float64) float64 {
	xs := r.xs
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return float64(xs[len(xs)-1])
	}
	return float64(xs[lo]) + (pos-float64(lo))*float64(xs[lo+1]-xs[lo])
}

// series keeps the latency samples of a measured window by segLen-long
// segment. A quantile is taken in each segment that holds enough samples and
// the median of those is reported, so that a burst of noise from the rest of
// the machine moves one segment rather than the result.
type series struct {
	start time.Time
	segs  []*reservoir
}

const segLen = time.Second

// newSeries covers a window of length d, from a start set before the first
// add; perSeg slots of each segment are preallocated.
func newSeries(d time.Duration, perSeg int) *series {
	s := &series{segs: make([]*reservoir, max(1, int((d+segLen-1)/segLen)))}
	for i := range s.segs {
		s.segs[i] = newReservoir(perSeg, perSeg, uint64(i)+1)
	}
	return s
}

// add records a sample that completed at t; samples completing after the
// window count in its last segment.
func (s *series) add(t time.Time, ns int64) {
	i := min(max(int(t.Sub(s.start)/segLen), 0), len(s.segs)-1)
	s.segs[i].add(ns)
}

func (s *series) merge(o *series) {
	for i, r := range o.segs {
		s.segs[i].merge(r)
	}
}

func (s *series) count() int64 {
	var n int64
	for _, r := range s.segs {
		n += r.seen
	}
	return n
}

func (s *series) mean() float64 {
	var sum int64
	for _, r := range s.segs {
		sum += r.sum
	}
	return ratio(float64(sum), float64(s.count()))
}

// quantile is the median, over the segments holding at least ten samples
// beyond the q-quantile, of each segment's q-quantile. When no segment holds
// that many, it is the q-quantile of all samples.
func (s *series) quantile(q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	var per []float64
	all := &reservoir{}
	for _, r := range s.segs {
		if len(r.xs) >= need {
			per = append(per, r.quantile(q))
		}
		all.xs = append(all.xs, r.xs...)
	}
	if len(per) == 0 {
		return all.quantile(q)
	}
	return median(per)
}

// median of a small set of timings.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// probe measures process-level costs over one measured window: wall time,
// heap allocations, GC work and the peak of live heap objects, sampled
// every heapSampleEvery by a goroutine that stop ends.
type probe struct {
	start time.Time
	ms0   runtime.MemStats
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

const heapSampleEvery = 2 * time.Millisecond

type probeResult struct {
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	peakHeap   uint64
}

func startProbe() *probe {
	runtime.GC()
	p := &probe{stopc: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&p.ms0)
	go p.sample()
	p.start = time.Now()
	return p
}

func (p *probe) sample() {
	defer close(p.done)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	for {
		metrics.Read(s)
		p.peak = max(p.peak, s[0].Value.Uint64())
		select {
		case <-p.stopc:
			return
		case <-t.C:
		}
	}
}

func (p *probe) stop() probeResult {
	wall := time.Since(p.start)
	close(p.stopc)
	<-p.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probeResult{
		wall:       wall,
		mallocs:    ms.Mallocs - p.ms0.Mallocs,
		allocBytes: ms.TotalAlloc - p.ms0.TotalAlloc,
		gcCycles:   ms.NumGC - p.ms0.NumGC,
		gcPauseNs:  ms.PauseTotalNs - p.ms0.PauseTotalNs,
		peakHeap:   max(p.peak, ms.HeapAlloc),
	}
}

// kernelCounters parses the kernel's telemetry snapshot into a map:
// "name value" lines by name, and the count and mean of histogram lines
// ("name count=N mean=M ...") as name.count and name.total = N*M.
func kernelCounters(k *core.Kernel) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range k.Metrics.Snapshot() {
		f := strings.Fields(line)
		if len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
			continue
		}
		var count, mean float64
		for _, kv := range f[1:] {
			key, val, _ := strings.Cut(kv, "=")
			v, err := strconv.ParseFloat(val, 64)
			switch {
			case err != nil:
			case key == "count":
				count = v
			case key == "mean":
				mean = v
			}
		}
		out[f[0]+".count"] = count
		out[f[0]+".total"] = count * mean
	}
	return out
}

// dispatchRatios sets the per-fire dispatch metrics from a kernel counter
// delta: verdict-cache hit ratio, VM steps and model inferences per fire.
func dispatchRatios(d map[string]float64, m metricSet) {
	hits, misses := d["core.verdict_cache.hits"], d["core.verdict_cache.misses"]
	m.set("core.vcache_hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("core.steps_per_fire", ratio(d["core.program_steps.total"], d["core.fires"]), "count")
	m.set("core.inferences_per_fire", ratio(d["core.inferences"], d["core.fires"]), "count")
}

// counterDelta is after[name] - before[name] for every name in after.
func counterDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for name, v := range after {
		d[name] = v - before[name]
	}
	return d
}

// tierShares turns engine-fire count deltas into shares of all engine fires.
func tierShares(d map[string]float64, m metricSet) {
	tiers := []string{"aot", "jit", "interp", "baseline"}
	var total float64
	for _, t := range tiers {
		total += d["core.engine_fires."+t]
	}
	for _, t := range tiers {
		m.set("core.tier_share."+t, ratio(d["core.engine_fires."+t], total), "ratio")
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
