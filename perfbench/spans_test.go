package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 40 * ms, End: 70 * ms},
		{ID: 4, Parent: 3, Name: "c", Start: 45 * ms, End: 55 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
}

func TestSelfTimeMergesOverlapAndClips(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "p", Start: 10 * ms, End: 60 * ms},
		// Overlapping children: union is [20,50) = 30ms.
		{ID: 2, Parent: 1, Name: "x", Start: 20 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "y", Start: 30 * ms, End: 50 * ms},
		// A child poking outside the parent only counts inside it.
		{ID: 4, Parent: 1, Name: "z", Start: 55 * ms, End: 80 * ms},
	}
	if got := selfTimes(spans)[1]; got != 15*ms {
		t.Errorf("parent self = %v, want 15ms (50 - 30 merged - 5 clipped)", got)
	}
}

func TestSpanRecorderNests(t *testing.T) {
	r := newSpanRecorder()
	root := r.begin("request", "r1", 0)
	child := r.begin("layer", "r1", root)
	time.Sleep(2 * time.Millisecond)
	r.end(child)
	r.end(root)
	self := selfTimes(r.spans)
	if self[child] < 2*time.Millisecond {
		t.Errorf("child self %v shorter than its sleep", self[child])
	}
	if self[root] < 0 || self[root] > r.spans[root-1].dur() {
		t.Errorf("root self %v outside [0, %v]", self[root], r.spans[root-1].dur())
	}
	if r.spans[child-1].Req != "r1" || r.spans[child-1].Parent != root {
		t.Errorf("child span lost its request or parent: %+v", r.spans[child-1])
	}
}
