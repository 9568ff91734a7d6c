package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/experiments"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
)

// firestorm: fsWorkers closed-loop goroutines send FireBatch calls of
// fsBatch events. Flows are drawn from a seeded Zipf over fsFlows flows, 8×
// the verdict cache's 32 shards × 4096 entries, so a hot head hits the
// cache and a long tail misses it. Event shares are fixed: fsShareFixture%
// go to the AOT-corpus hot-path fixture (pure, cacheable), fsShareImpure%
// to a runtime-installed impure program (JIT tier, never cached) and the
// rest to a program that traps on every event of its slice, which runs
// under the supervisor with a registered baseline fallback. The engine
// sentinel samples at its default 1-in-64. Worker 0 also makes one
// control-plane write every fsWriteEvery, due on a fixed schedule.

const (
	fsWorkers = 2
	fsBatch   = 64
	fsFlows   = 1 << 20 // experiments.HotPathKeys keys × 4096 arg2 values
	// fsZipfS makes the hottest tenth of the flows carry 56% of the events:
	// the share of packets the largest tenth of the flows carries in
	// netsim's default workload (TestZipfMatchesNetsim).
	fsZipfS        = 0.76
	fsRing         = 1 << 20 // pre-generated events per worker, replayed cyclically
	fsShareFixture = 75
	fsShareImpure  = 20
	fsImpureKeys   = 1024 // impure-program keys owned by each worker
	fsFixtureArg3  = 3
	// fsWriteEvery gives each one-second segment 25 writes: the 20 its
	// refresh_p50_ms needs (ten beyond the median) and a quarter more for
	// writes that land in the next segment. Writes invalidate the verdict
	// cache, so fewer writes would leave refresh_p50_ms without a
	// per-segment median and more would cost the mix more of its hits.
	fsWriteEvery = 40 * time.Millisecond

	impureHook = "bench/impure"
	trapHook   = "bench/trap"
	sideHook   = "bench/side"
)

// Event kinds of the firestorm mix.
const (
	kindFixture = iota
	kindImpure
	kindTrap
)

// impureSource counts fires per key in context field 0 and returns
// count*1024 + arg2: it writes context state, so the verifier never
// certifies it pure and its verdicts are never cached.
const impureSource = `
        ldctxt  r4, r1, 0
        addimm  r4, 1
        stctxt  r1, 0, r4
        mov     r0, r4
        mulimm  r0, 1024
        add     r0, r2
        exit`

// trapSource divides arg2 by arg3; the trap slice fires it with arg3 = 0.
const trapSource = `
        mov     r0, r2
        div     r0, r3
        exit`

// trapFallback is the baseline verdict registered for trapHook.
func trapFallback(_ string, key, arg2, _ int64) (int64, []int64) {
	return key*31 + arg2, nil
}

type firestorm struct {
	seed  int64
	k     *core.Kernel
	plane *ctrl.Plane
	sup   *core.Supervisor
	sen   *core.Sentinel
	mat   *core.Matrix // the hot-path fixture's matrix, for the reference
	rec   *Recorder
}

func newFirestorm(o opts, rec *Recorder) (bench, error) {
	k := core.NewKernel(core.Config{Mode: core.ModeAOT})
	if err := experiments.InstallHotPath(k); err != nil {
		return nil, err
	}
	mat, err := k.Matrix(k.MatrixIDs()[0])
	if err != nil {
		return nil, err
	}
	f := &firestorm{seed: o.seed, k: k, plane: ctrl.New(k), mat: mat, rec: rec}
	tables := []struct {
		name, hook, src string
		keys            int
	}{
		{"impure_tab", impureHook, impureSource, fsWorkers * fsImpureKeys},
		{"trap_tab", trapHook, trapSource, experiments.HotPathKeys},
	}
	for _, t := range tables {
		prog, err := assemble(rec, t.name+"_prog", t.hook, t.src, &verifier.Config{CtxFields: 8})
		if err != nil {
			return nil, err
		}
		id, rep, err := f.plane.LoadProgram(prog)
		if err != nil {
			return nil, err
		}
		if t.hook == impureHook && rep.Pure {
			return nil, fmt.Errorf("%s: program certified pure", t.name)
		}
		if _, _, err := f.plane.CreateTable(t.name, t.hook, table.MatchExact); err != nil {
			return nil, err
		}
		for key := 0; key < t.keys; key++ {
			e := &table.Entry{Key: uint64(key), Action: table.Action{Kind: table.ActionProgram, ProgID: id}}
			if err := f.plane.AddEntry(t.name, e); err != nil {
				return nil, err
			}
		}
	}
	if _, _, err := f.plane.CreateTable("side_tab", sideHook, table.MatchExact); err != nil {
		return nil, err
	}
	f.sup = k.Supervise(core.SupervisorConfig{Seed: o.seed})
	k.RegisterFallback(trapHook, core.FallbackFunc{Label: "bench-baseline", Fn: trapFallback})
	f.sen = k.AttachSentinel(core.SentinelConfig{Seed: o.seed})
	return f, nil
}

func (f *firestorm) close() error { return nil }

// fixtureRef evaluates the hot-path fixture in plain Go: the feature vector
// (key, arg2, arg3, key), a matmul with the fixture's matrix, and a vecsum.
func (f *firestorm) fixtureRef(key, arg2, arg3 int64) int64 {
	m := f.mat
	v := []int64{key, arg2, arg3, key}
	var sum int64
	for i := 0; i < m.Out; i++ {
		acc := m.B[i]
		for j := 0; j < m.In; j++ {
			acc += m.W[i*m.In+j] * v[j]
		}
		sum += acc
	}
	return sum
}

// fsWorker is one firing goroutine with its pre-generated input ring.
type fsWorker struct {
	f      *firestorm
	id     int
	kinds  []uint8
	flows  []uint32
	pos    int
	counts []int64 // impure reference: fires of each of this worker's keys
	rec    *Recorder
	ph     *phase

	fellBack, fired int64
	writes          int
	lateness        *reservoir
}

// zipf draws ranks k in [0, n) with probability proportional to
// (k+1)^-s by inverting a cumulative table; math/rand's Zipf needs s > 1.
type zipf []float64

func newZipf(s float64, n int) zipf {
	z := make(zipf, n)
	var sum float64
	for k := range z {
		sum += math.Pow(float64(k+1), -s)
		z[k] = sum
	}
	return z
}

func (z zipf) draw(rng *rand.Rand) uint64 {
	return uint64(sort.SearchFloat64s(z, rng.Float64()*z[len(z)-1]))
}

func (f *firestorm) newWorker(id int, ph *phase, z zipf) *fsWorker {
	rng := rand.New(rand.NewSource(f.seed*fsWorkers + int64(id)))
	w := &fsWorker{
		f: f, id: id, ph: ph,
		kinds:    make([]uint8, fsRing),
		flows:    make([]uint32, fsRing),
		counts:   make([]int64, fsImpureKeys),
		lateness: newReservoir(0, 1<<16, 3),
	}
	for i := range w.kinds {
		switch r := rng.Intn(100); {
		case r < fsShareFixture:
			w.kinds[i] = kindFixture
		case r < fsShareFixture+fsShareImpure:
			w.kinds[i] = kindImpure
		default:
			w.kinds[i] = kindTrap
		}
		// Scatter the Zipf ranks over the flow space so hot flows do not
		// share a key.
		w.flows[i] = uint32(z.draw(rng)*0x9E3779B1) % fsFlows
	}
	return w
}

// event decodes ring slot i into a kernel event.
func (w *fsWorker) event(i int) core.Event {
	flow := int64(w.flows[i])
	switch w.kinds[i] {
	case kindImpure:
		return core.Event{Hook: impureHook, Key: int64(w.id*fsImpureKeys) + flow%fsImpureKeys, Arg2: flow / fsImpureKeys}
	case kindTrap:
		return core.Event{Hook: trapHook, Key: flow % experiments.HotPathKeys, Arg2: flow / experiments.HotPathKeys}
	}
	return core.Event{Hook: experiments.HotPathHook, Key: flow % experiments.HotPathKeys, Arg2: flow / experiments.HotPathKeys, Arg3: fsFixtureArg3}
}

// check compares one result with its reference and reports whether it
// matched.
func (w *fsWorker) check(kind uint8, ev *core.Event, res *core.FireResult) bool {
	if res.FellBack {
		w.fellBack++
	}
	switch kind {
	case kindImpure:
		c := &w.counts[ev.Key-int64(w.id*fsImpureKeys)]
		*c++
		return !res.Trapped && !res.FellBack && res.Verdict == *c*1024+ev.Arg2
	case kindTrap:
		if res.FellBack {
			want, _ := trapFallback(ev.Hook, ev.Key, ev.Arg2, ev.Arg3)
			return res.Verdict == want
		}
		return res.Trapped && res.Verdict == core.DefaultVerdict
	}
	return !res.Trapped && !res.FellBack && res.Verdict == w.f.fixtureRef(ev.Key, ev.Arg2, ev.Arg3)
}

// fire sends batches until deadline (or n batches when n > 0), timing each
// FireBatch when timed is set, and makes worker 0's due writes.
func (w *fsWorker) fire(deadline time.Time, n int, timed bool) error {
	var (
		events [fsBatch]core.Event
		out    [fsBatch]core.FireResult
		kinds  [fsBatch]uint8
	)
	nextWrite := time.Now().Add(fsWriteEvery)
	for b := 0; n <= 0 || b < n; b++ {
		for j := range events {
			kinds[j] = w.kinds[w.pos]
			events[j] = w.event(w.pos)
			w.pos = (w.pos + 1) % fsRing
		}
		sp := w.rec.Begin("core.fire_batch")
		t0 := time.Now()
		w.f.k.FireBatch(events[:], out[:])
		t1 := time.Now()
		w.rec.End(sp)
		for j := range events {
			w.ph.attempted++
			if !w.check(kinds[j], &events[j], &out[j]) {
				w.ph.failed++
			}
		}
		w.fired += fsBatch
		if !timed {
			continue
		}
		w.ph.decide.add(t1, t1.Sub(t0).Nanoseconds())
		if w.id == 0 && !t1.Before(nextWrite) {
			if err := w.write(nextWrite); err != nil {
				return err
			}
			nextWrite = nextWrite.Add(fsWriteEvery)
		}
		if !t1.Before(deadline) {
			break
		}
	}
	return nil
}

// write makes the side table's next write, due at due: even writes add key
// i/2 with a parameter verdict, odd writes remove it again. Worker 0 makes
// the write between batches, so it is timed from its start, the closed-loop
// convention, to its acknowledgement; the wait since its due time is the
// generator's lateness. Then one fire of the key must see it.
func (w *fsWorker) write(due time.Time) error {
	key := int64(w.writes / 2)
	e := &table.Entry{Key: uint64(key), Action: table.Action{Kind: table.ActionParam, Param: 1000 + key}}
	add := w.writes%2 == 0
	w.writes++
	root := w.rec.Begin("write")
	start := time.Now()
	w.lateness.add(start.Sub(due).Nanoseconds())
	var err error
	if add {
		sp := w.rec.Begin("ctrl.add_entry")
		err = w.f.plane.AddEntry("side_tab", e)
		w.rec.End(sp)
	} else {
		sp := w.rec.Begin("ctrl.remove_entry")
		err = w.f.plane.RemoveEntry("side_tab", e)
		w.rec.End(sp)
	}
	ack := time.Now()
	w.ph.refresh.add(ack, ack.Sub(start).Nanoseconds())
	sp := w.rec.Begin("core.fire")
	res := w.f.k.Fire(sideHook, key, 0, 0)
	w.rec.End(sp)
	w.rec.End(root)
	if err != nil {
		return fmt.Errorf("side-table write: %w", err)
	}
	want := core.DefaultVerdict
	if add {
		want = 1000 + key
	}
	w.ph.attempted++
	if res.Verdict != want {
		w.ph.failed++
	}
	return nil
}

func (f *firestorm) run(d time.Duration) (*phase, error) {
	ph := newPhase(d)
	workers := make([]*fsWorker, fsWorkers)
	z := newZipf(fsZipfS, fsFlows)
	for i := range workers {
		// Warm the engines and the cache head before timing; the warm-up's
		// checks count towards attempted and failed.
		w := f.newWorker(i, ph, z)
		if err := w.fire(time.Time{}, 256, false); err != nil {
			return nil, err
		}
		w.ph, w.rec = newPhase(d), f.rec.Fork(int64(i)+1)
		workers[i] = w
	}
	c0, gen0 := kernelCounters(f.k), f.k.Generation()
	checks0 := f.sen.Counts().Sampled
	var fellBack0, fired0 int64
	for _, w := range workers {
		fellBack0 += w.fellBack
		fired0 += w.fired
	}

	win := startProbe()
	for _, w := range workers {
		w.ph.begin(win.start)
	}
	deadline := win.start.Add(d)
	errs := make([]error, fsWorkers)
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *fsWorker) {
			defer wg.Done()
			errs[i] = w.fire(deadline, 0, true)
		}(i, w)
	}
	wg.Wait()
	ph.probe = win.stop()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	delta := counterDelta(c0, kernelCounters(f.k))
	ph.fires = delta["core.fires"]
	lateness := newReservoir(0, 1<<16, 4)
	var fellBack, fired int64
	for _, w := range workers {
		ph.attempted += w.ph.attempted
		ph.failed += w.ph.failed
		ph.decide.merge(w.ph.decide)
		ph.refresh.merge(w.ph.refresh)
		lateness.merge(w.lateness)
		fellBack += w.fellBack
		fired += w.fired
		f.rec.Merge(w.rec)
	}
	if f.rec == nil {
		return ph, nil
	}
	m := ph.m
	m.set("core.fire_ns", ratio(float64(f.rec.TotalNs("core.fire_batch")), float64(f.rec.Count("core.fire_batch")*fsBatch)), "ns")
	dispatchRatios(delta, m)
	tierShares(delta, m)
	trips, _, _, _ := f.sup.Counts()
	m.set("core.fallback_share", ratio(float64(fellBack-fellBack0), float64(fired-fired0)), "ratio")
	m.set("core.breaker_trips", float64(trips), "count") // since set-up: the trap slice trips during warm-up
	m.set("core.sentinel_checks", float64(f.sen.Counts().Sampled-checks0), "count")
	writes := float64(workers[0].writes)
	m.set("core.generation_bumps", float64(f.k.Generation()-gen0), "count")
	m.set("core.vcache_invalidations_per_write", ratio(delta["core.verdict_cache.invalidations"], writes), "count")
	m.set("ctrl.add_entry_us", f.rec.Quantile("ctrl.add_entry", 0.5)/1e3, "us")
	m.set("ctrl.remove_entry_us", f.rec.Quantile("ctrl.remove_entry", 0.5)/1e3, "us")
	m.set("gen.lateness_p99_ms", lateness.quantile(0.99)/1e6, "ms")
	m.set("isa.assemble_us", f.rec.Quantile("isa.assemble", 0.5)/1e3, "us")
	m.set("verifier.verify_us", f.rec.Quantile("verifier.verify", 0.5)/1e3, "us")
	return ph, nil
}
