package main

import (
	"reflect"
	"testing"

	"rmtk/internal/core"
	"rmtk/internal/experiments"
)

// TestVideoDeterminism replays prefetch-video's trace on the AOT stack twice
// with one seed and once with another: the two same-seed replays must agree
// on simulated JCT, accuracy, completed retrains, engine-tier fire counts
// and every emitted page, and the other seed must change those outcomes.
func TestVideoDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("three full replays of the video trace")
	}
	run := func(seed int64) videoOutcome {
		t.Helper()
		o, err := replayVideo(experiments.VideoTrace(seed), core.ModeAOT)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	key := func(o videoOutcome) []any {
		return []any{o.jct, o.accuracy, o.trains, o.tiers}
	}
	a, b, c := run(1), run(1), run(2)
	if !reflect.DeepEqual(key(a), key(b)) {
		t.Errorf("same seed, different outcomes:\n%v\n%v", key(a), key(b))
	}
	if !reflect.DeepEqual(a.hashes, b.hashes) {
		t.Error("same seed, different emitted pages")
	}
	if reflect.DeepEqual(key(a), key(c)) {
		t.Errorf("seeds 1 and 2 gave the same outcome %v", key(a))
	}
	if a.trains == 0 || a.tiers["core.engine_fires.aot"] == 0 {
		t.Errorf("replay did not retrain or run the AOT tier: %v", key(a))
	}
}
