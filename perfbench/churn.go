package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"rmtk/internal/core"
	"rmtk/internal/ctrl"
	"rmtk/internal/ml/dt"
	"rmtk/internal/table"
	"rmtk/internal/verifier"
	"rmtk/internal/wal"
)

// reconfig-churn: one goroutine sends a seeded open-loop schedule of
// control-plane writes at churnRate to a durable plane (ctrl.Open with
// wal.Options{NoSync: true}: fsync is left out, so that the writes measure
// the control plane rather than the disk under it); a second fires closed
// loop at the same kernel. Every write invalidates cached verdicts, and
// model pushes and program loads also rebuild the copy-on-write route
// snapshot, so a change that speeds reads by doing more work per write
// shows here and not on firestorm. After each acknowledged write the writer
// fires the affected key once and checks that the fire sees the write.

const (
	// churnRate gives each one-second segment 125 writes: the 100 its
	// refresh_p90_ms needs (ten beyond the 90th percentile) and a quarter
	// more for writes that land in the next segment.
	churnRate      = 125
	churnKeys      = 2048
	churnModelKeys = 16 // keys [0, churnModelKeys) always route to the model program
	churnVariants  = 4  // ALU program variants loaded at set-up
	churnTrees     = 8  // integer trees trained at set-up, pushed in turn
	churnArg2s     = 8  // arg2 values the trees are trained on
	churnCheckArg2 = 7
	// The reader draws arg2 from churnReadArg2s values, so that its ring
	// holds each of its churnKeys × churnReadArg2s flows at most about once
	// and no flow recurs between two writes: its fires miss the verdict
	// cache however fast it runs. A reader that could hit the cache would
	// hit it more the faster it ran, which amplifies the host's noise.
	churnReadArg2s = 1 << 20
	// Every churnLoadEvery-th write is a program load, at a fixed cadence
	// rather than drawn, so that every seed ends the window with the same
	// number of loaded programs.
	churnLoadEvery = 100 / 2
	churnRing      = 1 << 16

	churnHook  = "bench/churn"
	churnTable = "churn_tab"
)

// Write kinds and their shares of the schedule, in percent. A txn commits
// an AddEntry, an UpdateAction and a PushModel together. Loads come every
// churnLoadEvery-th write; the other writes are drawn from the other
// shares.
//
// Pushes and txns, which each push a model, are 8% of the writes, so models
// arrive at 10/s: the rate at which prefetch-video's prefetcher pushes its
// retrained trees, 176 over a simulated 17.95 s (TestChurnPushRate). Loads
// are 2%, so that a 30 s window adds 75 programs, which the kernel has no
// way to unload. Removes match adds plus txn adds, so that the table stays
// half full, and updates take the rest.
const (
	opAdd = iota
	opRemove
	opUpdate
	opPush
	opLoad
	opTxn
)

var (
	churnMix = [...]int{opAdd: 26, opRemove: 30, opUpdate: 34, opPush: 4, opLoad: 100 / churnLoadEvery, opTxn: 4}
	opSpan   = [...]string{"ctrl.add_entry", "ctrl.remove_entry", "ctrl.update_action", "ctrl.push_model", "ctrl.load_program", "ctrl.txn_commit"}
)

// variantSource returns r0 = arg2*c + r3; entries carry a nonzero Param,
// which the kernel passes as r3.
func variantSource(c int64) string {
	return fmt.Sprintf(`
        mov     r0, r2
        mulimm  r0, %d
        add     r0, r3
        exit`, c)
}

type variant struct {
	id   int64
	name string
	c    int64
}

// entry is the writer's reference copy of one table entry.
type entry struct {
	present bool
	v       int // index into variants
	param   int64
}

type churn struct {
	seed    int64
	dir     string
	rec     *Recorder
	k       *core.Kernel
	plane   *ctrl.Plane
	trees   []*dt.Tree
	models  []*core.TreeModel
	modelID int64
	tree    int // index of the tree the model currently serves

	variants []variant
	entries  [churnKeys]entry
	rng      *rand.Rand
}

func newChurn(o opts, rec *Recorder) (bench, error) {
	dir, err := os.MkdirTemp(o.workdir, "churn-")
	if err != nil {
		return nil, err
	}
	c := &churn{seed: o.seed, dir: dir, rec: rec, rng: rand.New(rand.NewSource(o.seed))}
	if err := c.setup(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *churn) setup() error {
	c.k = core.NewKernel(core.Config{Mode: core.ModeAOT})
	var err error
	if c.plane, err = ctrl.Open(c.k, c.dir, wal.Options{NoSync: true}); err != nil {
		return err
	}
	trng := rand.New(rand.NewSource(c.seed + 1))
	for j := 0; j < churnTrees; j++ {
		X := make([][]int64, 512)
		y := make([]int64, len(X))
		for i := range X {
			key, arg2 := trng.Int63n(churnKeys), trng.Int63n(churnArg2s)
			X[i] = []int64{key, arg2}
			y[i] = (key*int64(j+3) ^ arg2) % 5
		}
		t, err := dt.Train(X, y, dt.Config{MaxDepth: 6, MinSamples: 2, MaxThresholds: 16})
		if err != nil {
			return err
		}
		c.trees = append(c.trees, t)
		c.models = append(c.models, core.NewTreeModel(t))
	}
	if c.modelID, err = c.plane.RegisterModel(c.models[0]); err != nil {
		return err
	}
	modelSrc := fmt.Sprintf(`
        veczero v0, 2
        vecset  v0, 0, r1
        vecset  v0, 1, r2
        mlinfer r0, v0, %d
        exit`, c.modelID)
	modelProg, err := assemble(c.rec, "churn_model", churnHook, modelSrc, nil)
	if err != nil {
		return err
	}
	modelProg.Models = []int64{c.modelID}
	modelProgID, _, err := c.plane.LoadProgram(modelProg)
	if err != nil {
		return err
	}
	for i := 0; i < churnVariants; i++ {
		if _, err := c.loadVariant(); err != nil {
			return err
		}
	}
	if _, _, err := c.plane.CreateTable(churnTable, churnHook, table.MatchExact); err != nil {
		return err
	}
	for key := 0; key < churnKeys; key++ {
		a := table.Action{Kind: table.ActionProgram, ProgID: modelProgID}
		if key >= churnModelKeys {
			if key%2 == 1 {
				continue
			}
			e := entry{present: true, v: key % churnVariants, param: 1 + int64(key%97)}
			c.entries[key] = e
			a = c.action(e)
		}
		if err := c.plane.AddEntry(churnTable, &table.Entry{Key: uint64(key), Action: a}); err != nil {
			return err
		}
	}
	return nil
}

func (c *churn) close() error {
	var err error
	if c.plane != nil {
		err = c.plane.WAL().Close()
	}
	if rerr := os.RemoveAll(c.dir); err == nil {
		err = rerr
	}
	return err
}

// loadVariant assembles and loads the next ALU variant; the load is the
// write. Traced runs also time the verifier alone on the same program.
func (c *churn) loadVariant() (variant, error) {
	n := len(c.variants)
	v := variant{name: fmt.Sprintf("churn_v%d", n), c: int64(3 + 2*n)}
	prog, err := assemble(c.rec, v.name, churnHook, variantSource(v.c), &verifier.Config{})
	if err != nil {
		return v, err
	}
	sp := c.rec.Begin("ctrl.load_program")
	v.id, _, err = c.plane.LoadProgram(prog)
	c.rec.End(sp)
	if err != nil {
		return v, err
	}
	c.variants = append(c.variants, v)
	return v, nil
}

func (c *churn) action(e entry) table.Action {
	return table.Action{Kind: table.ActionProgram, ProgID: c.variants[e.v].id, Param: e.param}
}

// pickKey draws a non-model key whose presence is want; ok is false when
// 64 draws found none.
func (c *churn) pickKey(want bool) (int, bool) {
	for i := 0; i < 64; i++ {
		key := churnModelKeys + c.rng.Intn(churnKeys-churnModelKeys)
		if c.entries[key].present == want {
			return key, true
		}
	}
	return 0, false
}

// newEntry draws a target for an add or update: half the time the newest
// variant, so freshly loaded programs serve traffic.
func (c *churn) newEntry() entry {
	v := len(c.variants) - 1
	if c.rng.Intn(2) == 0 {
		v = c.rng.Intn(len(c.variants))
	}
	return entry{present: true, v: v, param: 1 + c.rng.Int63n(1000)}
}

// write is one scheduled control-plane write, drawn before its due time.
type write struct {
	op       int
	key      int   // add, remove, update; the txn's add
	key2     int   // the txn's update
	e, e2    entry // targets of key and key2
	tree     int   // push, txn
	modelKey int64 // push, txn: the model key checked
}

func (c *churn) draw(i int) write {
	w := write{op: opLoad, tree: (c.tree + 1) % churnTrees, modelKey: int64(i % churnModelKeys)}
	if i%churnLoadEvery != churnLoadEvery-1 {
		r := c.rng.Intn(100 - churnMix[opLoad])
		for op, share := range churnMix {
			if op == opLoad {
				continue
			}
			if r < share {
				w.op = op
				break
			}
			r -= share
		}
	}
	var ok bool
	switch w.op {
	case opAdd:
		w.key, ok = c.pickKey(false)
		w.e = c.newEntry()
	case opRemove:
		w.key, ok = c.pickKey(true)
	case opUpdate:
		w.key, ok = c.pickKey(true)
		w.e = c.newEntry()
	case opTxn:
		w.key, ok = c.pickKey(false)
		w.e = c.newEntry()
		if ok {
			w.key2, ok = c.pickKey(true)
			w.e2 = c.newEntry()
		}
	default:
		ok = true
	}
	if !ok {
		w.op = opPush // the table is too full or too empty for the drawn op
	}
	return w
}

// apply performs w through the plane and updates the reference copy.
func (c *churn) apply(w write) error {
	sp := c.rec.Begin(opSpan[w.op])
	var err error
	switch w.op {
	case opAdd:
		err = c.plane.AddEntry(churnTable, &table.Entry{Key: uint64(w.key), Action: c.action(w.e)})
	case opRemove:
		err = c.plane.RemoveEntry(churnTable, &table.Entry{Key: uint64(w.key)})
	case opUpdate:
		err = c.plane.UpdateAction(churnTable, uint64(w.key), c.action(w.e))
	case opPush:
		err = c.plane.PushModel(c.modelID, c.models[w.tree], 0, 0)
	case opTxn:
		t := c.plane.Begin()
		t.AddEntry(churnTable, &table.Entry{Key: uint64(w.key), Action: c.action(w.e)})
		t.UpdateAction(churnTable, uint64(w.key2), c.action(w.e2))
		t.PushModel(c.modelID, c.models[w.tree], 0, 0)
		err = t.Commit()
	}
	c.rec.End(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", opSpan[w.op], err)
	}
	switch w.op {
	case opAdd, opUpdate:
		c.entries[w.key] = w.e
	case opRemove:
		c.entries[w.key] = entry{}
	case opPush:
		c.tree = w.tree
	case opTxn:
		c.entries[w.key], c.entries[w.key2] = w.e, w.e2
		c.tree = w.tree
	}
	return nil
}

// expect is the reference verdict of key at arg2 churnCheckArg2.
func (c *churn) expect(key int) int64 {
	if key < churnModelKeys {
		return c.trees[c.tree].Predict([]int64{int64(key), churnCheckArg2})
	}
	e := c.entries[key]
	if !e.present {
		return core.DefaultVerdict
	}
	return churnCheckArg2*c.variants[e.v].c + e.param
}

// check fires each key the write affected once and reports whether every
// fire saw the write.
func (c *churn) check(w write, loaded variant) bool {
	sp := c.rec.Begin("core.fire")
	defer c.rec.End(sp)
	if w.op == opLoad {
		got, _, err := c.k.RunProgramByName(loaded.name, 1, churnCheckArg2, 5)
		return err == nil && got == churnCheckArg2*loaded.c+5
	}
	keys := []int{w.key}
	switch w.op {
	case opPush:
		keys = []int{int(w.modelKey)}
	case opTxn:
		keys = []int{w.key, w.key2, int(w.modelKey)}
	}
	for _, key := range keys {
		res := c.k.Fire(churnHook, int64(key), churnCheckArg2, 0)
		if res.Trapped || res.Verdict != c.expect(key) {
			return false
		}
	}
	return true
}

// writer sends the schedule until deadline. A write's refresh time runs from
// its due time to its acknowledgement, less the harness's own delay: the
// time after the write could have started (its due time, or the previous
// write's acknowledgement if that came later) until the writer goroutine ran
// it. That delay comes from the Go scheduler and the previous write's check
// fire, not from the plane; it is reported as the generator's lateness.
func (c *churn) writer(start, deadline time.Time, ph *phase, lateness *reservoir) (int, error) {
	period := time.Second / churnRate
	n := 0
	var prevAck time.Time
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			return n, nil
		}
		w := c.draw(i)
		time.Sleep(time.Until(due))
		root := c.rec.Begin("write")
		begin := time.Now()
		lateness.add(begin.Sub(due).Nanoseconds())
		var (
			loaded variant
			err    error
		)
		if w.op == opLoad {
			loaded, err = c.loadVariant()
		} else {
			err = c.apply(w)
		}
		ack := time.Now()
		backlog := max(prevAck.Sub(due), 0)
		ph.refresh.add(ack, (ack.Sub(begin) + backlog).Nanoseconds())
		prevAck = ack
		if err != nil {
			c.rec.End(root)
			return n, err
		}
		ok := c.check(w, loaded)
		c.rec.End(root)
		n++
		ph.attempted++
		if !ok {
			ph.failed++
		}
	}
}

// reader fires closed loop over a ring of uniformly drawn flows until
// deadline; a trapped fire is a failure.
func (c *churn) reader(deadline time.Time, ph *phase, rec *Recorder) {
	rng := rand.New(rand.NewSource(c.seed + 2))
	ring := make([]core.Event, churnRing)
	for i := range ring {
		ring[i] = core.Event{Hook: churnHook, Key: rng.Int63n(churnKeys), Arg2: rng.Int63n(churnReadArg2s)}
	}
	var out [fsBatch]core.FireResult
	for pos := 0; ; pos = (pos + fsBatch) % churnRing {
		events := ring[pos : pos+fsBatch]
		sp := rec.Begin("core.fire_batch")
		t0 := time.Now()
		c.k.FireBatch(events, out[:])
		t1 := time.Now()
		rec.End(sp)
		ph.decide.add(t1, t1.Sub(t0).Nanoseconds())
		for j := range out {
			ph.attempted++
			if out[j].Trapped {
				ph.failed++
			}
		}
		if !t1.Before(deadline) {
			return
		}
	}
}

func (c *churn) run(d time.Duration) (*phase, error) {
	ph, rph := newPhase(d), newPhase(d)
	lateness := newReservoir(0, 1<<16, 3)
	rrec := c.rec.Fork(1)
	c0, gen0, wal0 := kernelCounters(c.k), c.k.Generation(), c.plane.WAL().Size()

	win := startProbe()
	ph.begin(win.start)
	rph.begin(win.start)
	deadline := win.start.Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.reader(deadline, rph, rrec)
	}()
	writes, err := c.writer(win.start, deadline, ph, lateness)
	wg.Wait()
	ph.probe = win.stop()
	if err != nil {
		return nil, err
	}

	delta := counterDelta(c0, kernelCounters(c.k))
	ph.fires = delta["core.fires"]
	ph.decide = rph.decide
	ph.attempted += rph.attempted
	ph.failed += rph.failed
	c.rec.Merge(rrec)
	// Programs loaded at the end of the window: the model program and the
	// variants.
	ph.m.set("churn.programs", float64(1+len(c.variants)), "count")
	if c.rec == nil {
		return ph, nil
	}
	m := ph.m
	m.set("core.fire_ns", ratio(float64(c.rec.TotalNs("core.fire_batch")), float64(c.rec.Count("core.fire_batch")*fsBatch)), "ns")
	dispatchRatios(delta, m)
	tierShares(delta, m)
	m.set("core.generation_bumps", float64(c.k.Generation()-gen0), "count")
	m.set("core.vcache_invalidations_per_write", ratio(delta["core.verdict_cache.invalidations"], float64(writes)), "count")
	for _, name := range opSpan {
		m.set(name+"_us", c.rec.Quantile(name, 0.5)/1e3, "us")
	}
	m.set("wal.bytes_per_write", ratio(float64(c.plane.WAL().Size()-wal0), float64(writes)), "B")
	m.set("gen.lateness_p99_ms", lateness.quantile(0.99)/1e6, "ms")
	m.set("isa.assemble_us", c.rec.Quantile("isa.assemble", 0.5)/1e3, "us")
	m.set("verifier.verify_us", c.rec.Quantile("verifier.verify", 0.5)/1e3, "us")
	return ph, nil
}
