package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one call from the benchmark into a layer of rmtk. Times are
// nanoseconds since the recorder's epoch. Req identifies the request, the
// tree of spans under one root; Parent is the position of the enclosing span
// among the spans of that request in start order (-1 for the root). Self is
// the duration minus the time covered by child spans.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Self   int64  `json:"self_ns"`
}

// layerStat aggregates every finished span of one name.
type layerStat struct {
	count   int64
	totalNs int64
	selfNs  int64
	durs    *reservoir // span durations, for percentiles
}

// spanReservoir bounds the durations kept per span name.
const spanReservoir = 1 << 15

// Recorder keeps the spans of the calls the benchmark makes in memory. A
// request is the tree under a root span; when its root ends, the recorder
// computes each span's self time, folds the tree into per-name statistics
// and keeps it for writing out while fewer than keepMax spans are kept.
// A nil *Recorder records nothing, so untraced runs pass nil. A Recorder is
// not safe for concurrent use: each goroutine records into its own, and the
// recorders are merged when the run ends.
type Recorder struct {
	epoch   time.Time
	now     func() int64 // ns since epoch; replaced in tests
	reqBase int64
	req     int64

	open    []Span // spans of the request in flight
	stack   []int  // indexes into open of the spans not yet ended
	kept    []Span
	keepMax int
	dropped int64

	stats map[string]*layerStat
}

// NewRecorder returns a recorder whose request ids start at id<<40, so
// recorders of different goroutines never share a request id.
func NewRecorder(epoch time.Time, id int64, keepMax int) *Recorder {
	r := &Recorder{
		epoch:   epoch,
		reqBase: id << 40,
		keepMax: keepMax,
		stats:   make(map[string]*layerStat),
	}
	r.now = func() int64 { return int64(time.Since(r.epoch)) }
	return r
}

// Fork returns a recorder for another goroutine, sharing r's epoch and
// span budget, whose requests are numbered from id<<40; Merge folds it back.
// Fork of a nil recorder is nil.
func (r *Recorder) Fork(id int64) *Recorder {
	if r == nil {
		return nil
	}
	return NewRecorder(r.epoch, id, r.keepMax)
}

// Begin opens a span as a child of the innermost open span, or as the root
// of a new request when none is open, and returns the token End takes.
func (r *Recorder) Begin(name string) int {
	if r == nil {
		return 0
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	} else {
		r.req++
	}
	r.open = append(r.open, Span{Name: name, Start: r.now(), Parent: parent, Req: r.reqBase + r.req})
	i := len(r.open) - 1
	r.stack = append(r.stack, i)
	return i
}

// End closes the span Begin returned. Spans end innermost first.
func (r *Recorder) End(i int) {
	if r == nil {
		return
	}
	r.open[i].End = r.now()
	r.stack = r.stack[:len(r.stack)-1]
	if len(r.stack) == 0 {
		r.fold()
	}
}

// fold finishes the request in r.open: self times, statistics, retention.
func (r *Recorder) fold() {
	selfTimes(r.open)
	for i := range r.open {
		s := &r.open[i]
		r.add(s.Name, s.End-s.Start, s.Self)
	}
	if len(r.kept)+len(r.open) <= r.keepMax {
		r.kept = append(r.kept, r.open...)
	} else {
		r.dropped += int64(len(r.open))
	}
	r.open = r.open[:0]
}

// selfTimes sets each span's Self to its duration minus the part of its
// interval that the union of its direct children covers.
func selfTimes(spans []Span) {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		cur := [2]int64{s.Start, s.Start} // covered interval being merged
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > cur[1] {
				covered += cur[1] - cur[0]
				cur = [2]int64{lo, hi}
			} else if hi > cur[1] {
				cur[1] = hi
			}
		}
		covered += cur[1] - cur[0]
		s.Self = s.End - s.Start - covered
	}
}

func (r *Recorder) stat(name string) *layerStat {
	st := r.stats[name]
	if st == nil {
		st = &layerStat{durs: newReservoir(0, spanReservoir, uint64(len(r.stats))+1)}
		r.stats[name] = st
	}
	return st
}

func (r *Recorder) add(name string, dur, self int64) {
	st := r.stat(name)
	st.count++
	st.totalNs += dur
	st.selfNs += self
	st.durs.add(dur)
}

// Merge folds o's finished requests into r. Merging into a nil recorder
// does nothing.
func (r *Recorder) Merge(o *Recorder) {
	if r == nil {
		return
	}
	for name, os := range o.stats {
		st := r.stat(name)
		st.count += os.count
		st.totalNs += os.totalNs
		st.selfNs += os.selfNs
		st.durs.merge(os.durs)
	}
	room := max(r.keepMax-len(r.kept), 0)
	n := min(room, len(o.kept))
	r.kept = append(r.kept, o.kept[:n]...)
	r.dropped += o.dropped + int64(len(o.kept)-n)
}

// Count is how many spans of name finished.
func (r *Recorder) Count(name string) int64 {
	if st := r.stats[name]; st != nil {
		return st.count
	}
	return 0
}

// TotalNs is the summed duration of the finished spans of name.
func (r *Recorder) TotalNs(name string) int64 {
	if st := r.stats[name]; st != nil {
		return st.totalNs
	}
	return 0
}

// SelfNs is the summed self time of the finished spans of name.
func (r *Recorder) SelfNs(name string) int64 {
	if st := r.stats[name]; st != nil {
		return st.selfNs
	}
	return 0
}

// Quantile is the q-quantile of the durations of name, in ns (0 if none).
func (r *Recorder) Quantile(name string, q float64) float64 {
	st := r.stats[name]
	if st == nil {
		return 0
	}
	return st.durs.quantile(q)
}

// WriteJSONL writes the kept spans, one JSON object a line, followed by a
// line counting the spans that were folded into statistics but not kept.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range r.kept {
		if err := enc.Encode(&r.kept[i]); err != nil {
			return err
		}
	}
	if err := enc.Encode(map[string]int64{"dropped_spans": r.dropped}); err != nil {
		return err
	}
	return bw.Flush()
}
