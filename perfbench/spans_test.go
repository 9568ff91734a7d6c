package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// manualClock makes r read its times from *t.
func manualClock(r *Recorder, t *int64) {
	r.now = func() int64 { return *t }
}

func TestSelfTimesSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "a1", Start: 12, End: 18, Parent: 1},
		{Name: "d", Start: 60, End: 60, Parent: 0}, // empty
	}
	selfTimes(spans)
	// Root: children cover [10,50] and [90,100] = 50 of its 100 ns.
	want := []int64{50, 14, 30, 30, 6, 0}
	for i, w := range want {
		if spans[i].Self != w {
			t.Errorf("%s: self %d, want %d", spans[i].Name, spans[i].Self, w)
		}
	}
}

func TestRecorderRequestsStatsAndRetention(t *testing.T) {
	var now int64
	r := NewRecorder(time.Now(), 3, 3)
	manualClock(r, &now)

	// Request 1: root [0,100] with child [10,30] and grandchild [15,25].
	root := r.Begin("root")
	now = 10
	c := r.Begin("child")
	now = 15
	g := r.Begin("grand")
	now = 25
	r.End(g)
	now = 30
	r.End(c)
	now = 100
	r.End(root)
	// Request 2: one span [100,160]; it does not fit the 3-span budget.
	s := r.Begin("root")
	now = 160
	r.End(s)

	if got := r.Count("root"); got != 2 {
		t.Fatalf("root count %d, want 2", got)
	}
	if got := r.SelfNs("root"); got != 80+60 {
		t.Errorf("root self %d, want 140", got)
	}
	if got := r.SelfNs("child"); got != 10 {
		t.Errorf("child self %d, want 10", got)
	}
	if got := r.TotalNs("grand"); got != 10 {
		t.Errorf("grand total %d, want 10", got)
	}
	if got := r.Quantile("root", 0.5); got != 80 {
		t.Errorf("root p50 %v, want 80 (between 60 and 100)", got)
	}
	if len(r.kept) != 3 || r.dropped != 1 {
		t.Fatalf("kept %d dropped %d, want 3 and 1", len(r.kept), r.dropped)
	}
	wantReq := int64(3)<<40 + 1
	for i, sp := range r.kept {
		if sp.Req != wantReq {
			t.Errorf("span %d req %d, want %d", i, sp.Req, wantReq)
		}
	}
	if r.kept[1].Parent != 0 || r.kept[2].Parent != 1 {
		t.Errorf("parents %d %d, want 0 1", r.kept[1].Parent, r.kept[2].Parent)
	}

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines written, want 3 spans and a trailer:\n%s", len(lines), buf.String())
	}
	var sp Span
	if err := json.Unmarshal([]byte(lines[0]), &sp); err != nil || sp.Name != "root" || sp.Self != 80 {
		t.Errorf("first line %q decodes to %+v, %v", lines[0], sp, err)
	}
	if lines[3] != `{"dropped_spans":1}` {
		t.Errorf("trailer %q", lines[3])
	}
}

func TestRecorderMergeAndNil(t *testing.T) {
	var now int64
	a := NewRecorder(time.Now(), 1, 10)
	manualClock(a, &now)
	b := a.Fork(2)
	manualClock(b, &now)
	for _, r := range []*Recorder{a, b} {
		s := r.Begin("x")
		now += 7
		r.End(s)
	}
	a.Merge(b)
	if a.Count("x") != 2 || a.TotalNs("x") != 14 || len(a.kept) != 2 {
		t.Errorf("merged count %d total %d kept %d", a.Count("x"), a.TotalNs("x"), len(a.kept))
	}
	if a.kept[0].Req == a.kept[1].Req {
		t.Error("forked recorders share a request id")
	}

	var n *Recorder
	n.End(n.Begin("y"))
	n.Merge(a)
	if n.Fork(1) != nil {
		t.Error("fork of nil recorder is not nil")
	}
}

func TestReservoirQuantileAndCap(t *testing.T) {
	r := newReservoir(0, 4, 1)
	for i := int64(1); i <= 100; i++ {
		r.add(i)
	}
	if len(r.xs) != 4 || r.seen != 100 || r.sum != 5050 {
		t.Fatalf("kept %d seen %d sum %d", len(r.xs), r.seen, r.sum)
	}
	q := newReservoir(0, 10, 1)
	for _, x := range []int64{40, 10, 30, 20} {
		q.add(x)
	}
	if got := q.quantile(0.5); got != 25 {
		t.Errorf("p50 %v, want 25", got)
	}
	if got := q.quantile(1); got != 40 {
		t.Errorf("p100 %v, want 40", got)
	}
}
