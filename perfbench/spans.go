package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the traced run.
// Spans of one replayed request share Req; Parent is the ID of the
// span whose interval caused this one (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Req    string        `json:"req"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanRecorder keeps spans in memory for the length of a traced run;
// they are written out once, when the run ends. It is used from one
// goroutine.
type spanRecorder struct {
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now(), spans: make([]span, 0, 4096)}
}

// begin opens a span and returns its ID. A nil recorder records
// nothing, so the same code runs traced and untraced.
func (r *spanRecorder) begin(name, req string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: time.Since(r.epoch)})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].End = time.Since(r.epoch)
}

// add records a span timed elsewhere.
func (r *spanRecorder) add(name, req string, parent int, start time.Time, d time.Duration) {
	s := start.Sub(r.epoch)
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: s, End: s + d})
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children are
// merged first, and children are clipped to the parent's interval, so
// no instant is subtracted twice.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		flush := func() {
			if curEnd > cur {
				covered += curEnd - cur
			}
		}
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if start > curEnd {
				flush()
				cur, curEnd = start, end
			} else if end > curEnd {
				curEnd = end
			}
		}
		flush()
		out[s.ID] = s.dur() - covered
	}
	return out
}

// selfByName collects every span's self time in milliseconds, grouped
// by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID])/float64(time.Millisecond))
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
