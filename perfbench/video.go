package main

import (
	"fmt"
	"os"
	"time"

	"rmtk/internal/core"
	"rmtk/internal/experiments"
	"rmtk/internal/isa"
	"rmtk/internal/memsim"
	"rmtk/internal/ml/dt"
	"rmtk/internal/rmtprefetch"
	"rmtk/internal/verifier"
)

// prefetch-video replays the Table 1 video-resize trace through memsim into
// the RMT prefetcher (experiments.NewRMTPrefetcher: AOT engine, online
// retraining through the control plane), one closed-loop access at a time.

const (
	// videoTrainEvery is the retrain period of the prefetcher
	// experiments.NewRMTPrefetcher builds (rmtprefetch's default): every
	// videoTrainEvery-th access of the trace's single process is a retrain
	// step, timed as a refresh.
	videoTrainEvery = 512
	// videoHist is that prefetcher's delta-history feature width.
	videoHist = 8
	// videoPID is the process experiments.VideoTrace generates.
	videoPID = 56
)

// videoTree is the tree configuration rmtprefetch trains with by default;
// the traced run times dt.Train with it on a copy of the same history.
var videoTree = dt.Config{MaxDepth: 12, MinSamples: 2, MaxThresholds: 48}

type video struct {
	trace []memsim.Access
	rec   *Recorder
	// The stack set-up built, used by the first replay.
	first  *rmtprefetch.Prefetcher
	firstK *core.Kernel
}

func newVideo(o opts, rec *Recorder) (bench, error) {
	v := &video{trace: experiments.VideoTrace(o.seed), rec: rec}
	var err error
	v.first, v.firstK, err = experiments.NewRMTPrefetcher(core.ModeAOT)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		// rmtprefetch.New assembles and loads the collect program itself;
		// time the same work from outside.
		src := rmtprefetch.CollectProgramSource(1 << 17)
		if _, err := assemble(rec, "page_access_collect", memsim.HookLookupSwapCache, src, &verifier.Config{CtxFields: 8}); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func (v *video) close() error { return nil }

// assemble assembles src into a program under an isa.assemble span. When
// rec is non-nil and cfg is given, it also times verifier.Verify alone on
// the program under a verifier.verify span; cfg holds the registries the
// program needs, and the kernel verifies it again when it is loaded.
func assemble(rec *Recorder, name, hook, src string, cfg *verifier.Config) (*isa.Program, error) {
	sp := rec.Begin("isa.assemble")
	insns, err := isa.Assemble(src)
	rec.End(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	prog := &isa.Program{Name: name, Hook: hook, Insns: insns}
	if rec != nil && cfg != nil {
		sp = rec.Begin("verifier.verify")
		_, _ = verifier.Verify(prog, *cfg)
		rec.End(sp)
	}
	return prog, nil
}

// videoOutcome is what one complete replay produced.
type videoOutcome struct {
	jct, accuracy, coverage float64
	trains                  int
	tiers                   map[string]float64 // engine fires by tier
	fires                   float64
	hashes                  []uint64 // emission hash of each access
}

// replayer drives one replay through memsim, timing and hashing every
// OnAccess. It implements memsim.Prefetcher and memsim.Delayer.
type replayer struct {
	p      *rmtprefetch.Prefetcher
	k      *core.Kernel
	rec    *Recorder
	ph     *phase // nil: nothing is timed (reference replays)
	n      int
	hashes []uint64
}

func (r *replayer) Name() string     { return r.p.Name() }
func (r *replayer) TakeDelay() int64 { return r.p.TakeDelay() }

func (r *replayer) OnAccess(pid, page int64, hit bool) []int64 {
	r.n++
	retrain := r.n%videoTrainEvery == 0
	if retrain && r.rec != nil {
		r.timeTrain(pid)
	}
	sp := r.rec.Begin("rmtprefetch.on_access")
	t0 := time.Now()
	out := r.p.OnAccess(pid, page, hit)
	t1 := time.Now()
	r.rec.End(sp)
	if r.ph != nil {
		if retrain {
			r.ph.refresh.add(t1, t1.Sub(t0).Nanoseconds())
		} else {
			r.ph.decide.add(t1, t1.Sub(t0).Nanoseconds())
		}
	}
	r.hashes = append(r.hashes, hashPages(out))
	return out
}

// hashPages is the FNV-1a hash of the pages' little-endian bytes, computed
// without allocating so it adds nothing to allocs_per_fire.
func hashPages(pages []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, pg := range pages {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(pg >> (8 * i)))
			h *= 1099511628211
		}
	}
	return h
}

// timeTrain times dt.Train on a copy of the history the retrain step is
// about to read, as the prefetcher builds its training set from it.
func (r *replayer) timeTrain(pid int64) {
	sp := r.rec.Begin("table.ctx_hist")
	hist := make([]int64, r.k.Ctx().HistCap())
	n := r.k.Ctx().Hist(pid, hist)
	r.rec.End(sp)
	if n < videoHist+2 {
		return
	}
	var (
		X [][]int64
		y []int64
	)
	for i := videoHist; i < n; i++ {
		X = append(X, hist[i-videoHist:i])
		y = append(y, hist[i])
	}
	sp = r.rec.Begin("ml.dt.train")
	_, _ = dt.Train(X, y, videoTree)
	r.rec.End(sp)
}

// replay runs the trace through p. With a zero deadline it runs to the end;
// otherwise it stops at the first check past the deadline and reports
// complete=false if the trace was not finished.
func (r *replayer) replay(trace []memsim.Access, deadline time.Time) (o videoOutcome, complete bool) {
	sim := memsim.New(experiments.VideoMemConfig(), r)
	root := r.rec.Begin("memsim.run")
	complete = true
	for i, a := range trace {
		if !deadline.IsZero() && i%256 == 0 && time.Now().After(deadline) {
			complete = false
			break
		}
		sim.Step(a)
	}
	r.rec.End(root)
	res := sim.Result()
	c := kernelCounters(r.k)
	o = videoOutcome{
		jct:      res.CompletionSeconds(),
		accuracy: 100 * res.Accuracy(),
		coverage: 100 * res.Coverage(),
		trains:   r.p.Trains(videoPID),
		tiers:    map[string]float64{},
		fires:    c["core.fires"],
		hashes:   r.hashes,
	}
	for _, t := range []string{"aot", "jit", "interp", "baseline"} {
		o.tiers["core.engine_fires."+t] = c["core.engine_fires."+t]
	}
	return o, complete
}

// replayVideo runs one complete, untimed replay of trace in mode.
func replayVideo(trace []memsim.Access, mode core.ExecMode) (videoOutcome, error) {
	p, k, err := experiments.NewRMTPrefetcher(mode)
	if err != nil {
		return videoOutcome{}, err
	}
	o, _ := (&replayer{p: p, k: k}).replay(trace, time.Time{})
	return o, nil
}

// run replays the trace on fresh AOT stacks until d has passed; the first
// replay always completes. Every access's emissions are compared with a
// ModeInterp replay of the same trace, and every complete replay's JCT,
// accuracy and coverage with the reference's.
func (v *video) run(d time.Duration) (*phase, error) {
	ref, err := replayVideo(v.trace, core.ModeInterp)
	if err != nil {
		return nil, err
	}
	ph := newPhase(d)
	var (
		first   videoOutcome
		replays float64 // complete-replay equivalents, for memsim.self_s
		refOK   = true
	)
	win := startProbe()
	ph.begin(win.start)
	deadline := win.start.Add(d)
	for i := 0; ; i++ {
		p, k := v.first, v.firstK
		if i > 0 {
			if p, k, err = experiments.NewRMTPrefetcher(core.ModeAOT); err != nil {
				return nil, err
			}
		}
		r := &replayer{p: p, k: k, rec: v.rec, ph: ph, hashes: make([]uint64, 0, len(v.trace))}
		var dl time.Time
		if i > 0 {
			dl = deadline
		}
		o, complete := r.replay(v.trace, dl)
		ph.fires += o.fires
		ph.attempted += int64(len(o.hashes))
		for j, h := range o.hashes {
			if h != ref.hashes[j] {
				ph.failed++
			}
		}
		replays += float64(len(o.hashes)) / float64(len(v.trace))
		if complete {
			ph.attempted++
			if o.jct != ref.jct || o.accuracy != ref.accuracy || o.coverage != ref.coverage || o.trains != ref.trains {
				ph.failed++
				refOK = false
			}
		}
		if i == 0 {
			first = o
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	ph.probe = win.stop()
	if !refOK {
		fmt.Fprintf(os.Stderr, "perfbench: replay differs from the interpreter reference (jct=%v acc=%v cov=%v trains=%d)\n", ref.jct, ref.accuracy, ref.coverage, ref.trains)
	}

	m := ph.m
	m.set("rmtprefetch.sim_jct_s", first.jct, "s")
	m.set("rmtprefetch.accuracy_pct", first.accuracy, "%")
	m.set("rmtprefetch.coverage_pct", first.coverage, "%")
	if v.rec == nil {
		return ph, nil
	}
	m.set("rmtprefetch.trains", float64(first.trains), "count")
	tierShares(first.tiers, m)
	dispatchRatios(kernelCounters(v.firstK), m)
	m.set("ml.dt.train_ms", v.rec.Quantile("ml.dt.train", 0.5)/1e6, "ms")
	m.set("memsim.self_s", float64(v.rec.SelfNs("memsim.run"))/1e9/replays, "s")
	m.set("isa.assemble_us", v.rec.Quantile("isa.assemble", 0.5)/1e3, "us")
	m.set("verifier.verify_us", v.rec.Quantile("verifier.verify", 0.5)/1e3, "us")
	return ph, nil
}
