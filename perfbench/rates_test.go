package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/experiments"
	"rmtk/internal/netsim"
)

// TestZipfMatchesNetsim checks the source of fsZipfS: the hottest tenth of
// firestorm's flows must carry the share of events that the largest tenth
// of the flows carries of the packets in netsim's default workload,
// averaged over seeds 1-20.
func TestZipfMatchesNetsim(t *testing.T) {
	const seeds = 20
	var want float64
	for seed := int64(1); seed <= seeds; seed++ {
		w := netsim.GenWorkload(netsim.WorkloadConfig{Seed: seed})
		per := map[int64]int{}
		for _, p := range w.Packets {
			per[p.FlowID]++
		}
		counts := make([]int, 0, len(per))
		for _, n := range per {
			counts = append(counts, n)
		}
		slices.Sort(counts)
		slices.Reverse(counts)
		top := 0
		for _, n := range counts[:len(counts)/10] {
			top += n
		}
		want += float64(top) / float64(len(w.Packets)) / seeds
	}
	z := newZipf(fsZipfS, fsFlows)
	got := z[fsFlows/10-1] / z[fsFlows-1]
	if math.Abs(got-want) > 0.01 {
		t.Errorf("hottest tenth of the flows carries %.4f of firestorm's events, %.4f of netsim's packets", got, want)
	}
}

// TestZipfDraw checks the sampler against the table it inverts: rank 0's
// share of the draws must be its probability.
func TestZipfDraw(t *testing.T) {
	z := newZipf(fsZipfS, 1000)
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if z.draw(rng) == 0 {
			hits++
		}
	}
	want := z[0] / z[len(z)-1]
	if got := float64(hits) / n; math.Abs(got-want) > 4*math.Sqrt(want/n) {
		t.Errorf("rank 0 drawn %.4f of the time, want %.4f", got, want)
	}
}

// TestChurnPushRate checks the source of reconfig-churn's push share: the
// schedule must push models at the rate, within 5%, at which prefetch-video's
// prefetcher pushes retrained trees in simulated time.
func TestChurnPushRate(t *testing.T) {
	if testing.Short() {
		t.Skip("a full replay of the video trace")
	}
	o, err := replayVideo(experiments.VideoTrace(1), core.ModeInterp)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(o.trains) / o.jct
	got := float64(churnRate*(churnMix[opPush]+churnMix[opTxn])) / 100
	if math.Abs(got/want-1) > 0.05 {
		t.Errorf("reconfig-churn pushes %.2f models/s, prefetch-video %.2f (%d over %.2f s)", got, want, o.trains, o.jct)
	}
}
