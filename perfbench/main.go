// Command perfbench is rmtk's end-to-end and per-layer benchmark. It runs
// one named workload against the module's packages for a fixed time, checks
// every output against a reference that does not come from the engine tier
// under test, and prints each metric as "name value unit" followed, as the
// last line, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics BENCHMARK.json
// lists; traced runs (-trace 1) record spans around each call into a layer
// and report its per-layer metrics. It is run from the repository root
// (perfbench/run.sh builds and starts it):
//
//	bash perfbench/run.sh --workload firestorm --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// opts are the settings of one run.
type opts struct {
	seed    int64
	dur     time.Duration
	workdir string // scratch space inside the checkout (WAL directories, spans)
}

// bench is one set-up instance of a workload.
type bench interface {
	// run measures the instance for d and reports what it saw.
	run(d time.Duration) (*phase, error)
	// close releases what the instance holds (files, directories).
	close() error
}

// newBench sets up an instance of a workload. A non-nil rec records spans
// around the layer calls the set-up and the run make.
type newBench func(o opts, rec *Recorder) (bench, error)

var workloads = map[string]newBench{
	"prefetch-video": newVideo,
	"firestorm":      newFirestorm,
	"reconfig-churn": newChurn,
}

// phase is what one measured window produced.
type phase struct {
	attempted, failed int64
	decide            *series // ns per decision call
	refresh           *series // ns per refresh
	fires             float64 // kernel fires in the window
	probe             probeResult
	// m holds workload metrics: per-layer ones when traced, otherwise
	// extra end-to-end lines printed beside the listed metrics.
	m metricSet
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// setup_s is the median of setupReps samples. A sample sets the workload up
// back to back, as many times as it takes for the set-ups to add up to
// setupBatch, and is their mean, GC cost included, the way a Go benchmark
// loop times an operation: a set-up of a few milliseconds is then not timed
// against a single scheduler tick or GC cycle. The samples are split around
// the measured window, so that a slow spell of the host during one burst of
// set-ups moves only some of them.
const (
	setupReps  = 9
	setupBatch = 100 * time.Millisecond
)

// Latency samples kept per second of the window by one recording goroutine.
const (
	decidePerSeg  = 1 << 15
	refreshPerSeg = 1 << 12
)

// newPhase returns an empty phase for a window of length d. Its sample
// buffers are allocated here, before the window's probe starts.
func newPhase(d time.Duration) *phase {
	return &phase{
		decide:  newSeries(d, decidePerSeg),
		refresh: newSeries(d, refreshPerSeg),
		m:       metricSet{},
	}
}

// begin sets the start of the window the phase's samples are segmented by.
func (ph *phase) begin(start time.Time) {
	ph.decide.start, ph.refresh.start = start, start
}

func main() {
	workload := flag.String("workload", "", "workload name: prefetch-video, firestorm or reconfig-churn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench.work", "scratch directory for logs and spans")
	flag.Parse()
	if err := runMain(*workload, opts{*seed, time.Duration(*seconds * float64(time.Second)), *workdir}, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// listed are the metric names and units BENCHMARK.json declares.
type listed struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func runMain(name string, o opts, trace int) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var decl listed
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if o.dur <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	traced := trace == 1
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}

	var (
		ph   *phase
		want = decl.EndToEnd
	)
	if traced {
		want = decl.PerLayer
		ph, err = measureTraced(name, mk, o)
	} else {
		ph, err = measureUntraced(mk, o)
	}
	if err != nil {
		return err
	}

	m := ph.m
	if ph.attempted > 0 {
		m.set("fail_frac", float64(ph.failed)/float64(ph.attempted), "ratio")
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}

	out := metricSet{}
	for _, d := range want {
		v, ok := m[d.Name]
		switch {
		case !ok && !traced:
			return fmt.Errorf("workload %s did not measure %s", name, d.Name)
		case !ok:
			v = metric{0, d.Unit} // a layer this workload does not exercise
		case v.Unit != d.Unit:
			return fmt.Errorf("%s measured in %s, BENCHMARK.json says %s", d.Name, v.Unit, d.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s is not a number", d.Name)
		}
		out[d.Name] = v
	}
	res := struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{ph.failed == 0 && ph.attempted > 0, ph.attempted, ph.failed, out}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measureUntraced takes the set-up samples of setup_s, measures the
// instance set up last before the window for the whole window and reports
// the end-to-end metrics.
func measureUntraced(mk newBench, o opts) (*phase, error) {
	setups, b, err := sampleSetups(mk, o, setupReps/2+1, nil)
	if err != nil {
		return nil, err
	}
	ph, err := b.run(o.dur)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if setups, b, err = sampleSetups(mk, o, setupReps/2, setups); err != nil {
		return nil, err
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	m, fires, win := ph.m, ph.fires, ph.probe
	m.set("setup_s", median(setups), "s")
	m.set("decide_p50_us", ph.decide.quantile(0.5)/1e3, "us")
	m.set("decide_p99_us", ph.decide.quantile(0.99)/1e3, "us")
	m.set("decide_samples", float64(ph.decide.count()), "count")
	m.set("refresh_p50_ms", ph.refresh.quantile(0.5)/1e6, "ms")
	m.set("refresh_p90_ms", ph.refresh.quantile(0.9)/1e6, "ms")
	m.set("refresh_samples", float64(ph.refresh.count()), "count")
	m.set("fires_per_s", fires/win.wall.Seconds(), "1/s")
	m.set("allocs_per_fire", ratio(float64(win.mallocs), fires), "allocs/fire")
	m.set("peak_heap_mb", float64(win.peakHeap)/(1<<20), "MB")
	return ph, nil
}

// sampleSetups appends n set-up samples to setups and returns the instance
// it set up last, which the caller closes.
func sampleSetups(mk newBench, o opts, n int, setups []float64) ([]float64, bench, error) {
	var b bench
	runtime.GC()
	for i := 0; i < n; i++ {
		var (
			total time.Duration
			k     int
		)
		for k == 0 || total < setupBatch {
			t0 := time.Now()
			nb, err := mk(o, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
			total += time.Since(t0)
			k++
			if b != nil {
				if err := b.close(); err != nil {
					return nil, nil, err
				}
			}
			b = nb
		}
		setups = append(setups, total.Seconds()/float64(k))
	}
	return setups, b, nil
}

// measureTraced measures an untraced instance for half the window and a
// traced one for the other half: the span-derived per-layer metrics come
// from the traced half, the runtime's (go.*) from the untraced one, so that
// the recorder's own allocations do not count as the program's, and
// trace.overhead_frac compares the mean decision cost of the two.
// The traced half's spans are written to <workdir>/spans-<workload>.jsonl.
func measureTraced(name string, mk newBench, o opts) (*phase, error) {
	var phs [2]*phase
	rec := NewRecorder(time.Now(), 0, 1<<18)
	for i, r := range []*Recorder{nil, rec} {
		b, err := mk(o, r)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ph, err := b.run(o.dur / 2)
		if cerr := b.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		phs[i] = ph
	}
	ph := phs[1]
	ph.attempted += phs[0].attempted
	ph.failed += phs[0].failed
	m, win := ph.m, phs[0].probe
	m.set("trace.overhead_frac", ratio(ph.decide.mean(), phs[0].decide.mean())-1, "ratio")
	m.set("go.gc_cycles", float64(win.gcCycles), "count")
	m.set("go.gc_pause_ms", float64(win.gcPauseNs)/1e6, "ms")
	m.set("go.alloc_bytes_per_fire", ratio(float64(win.allocBytes), phs[0].fires), "B")

	f, err := os.Create(filepath.Join(o.workdir, "spans-"+name+".jsonl"))
	if err != nil {
		return nil, err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return nil, err
	}
	return ph, f.Close()
}
