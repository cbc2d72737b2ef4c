package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// pipeClient wires a client to one end of an in-memory connection and
// returns the other end, which plays headtalkd.
func pipeClient(t *testing.T, ledgers ...*ledger) (*client, net.Conn) {
	t.Helper()
	ours, theirs := net.Pipe()
	cl := &client{ledgers: map[byte]*ledger{}}
	for _, lg := range ledgers {
		cl.ledgers[lg.tag[0]] = lg
	}
	c := &conn{nc: ours, credits: make(chan struct{}, closedOutstanding)}
	cl.conns = append(cl.conns, c)
	cl.readers.Add(1)
	go cl.read(c)
	return cl, theirs
}

func decisionReply(id string, accepted bool) string {
	return fmt.Sprintf(`{"type":"decision","id":%q,"accepted":%t,"reason_slug":"not_facing","facing_score":-0.9}`+"\n", id, accepted)
}

func TestRepliesCorrelateByIDReorderedAndMissing(t *testing.T) {
	pool := []*utterance{{accept: false}, {accept: true}}
	lg := newLedger("o", 5)
	other := newLedger("c", 2)
	t0 := time.Now()
	for i := range lg.reqs {
		lg.reqs[i].due, lg.reqs[i].sent = t0, t0
		lg.reqs[i].item = int32(i % 2)
	}
	cl, daemon := pipeClient(t, lg, other)
	// Answers arrive out of order and interleaved with another phase's;
	// o2 never comes back, o4 is answered twice, o9 names no request,
	// and o3 (a live speaker facing the device) is wrongly rejected.
	lines := decisionReply("o4", false) + decisionReply("c1", false) + decisionReply("o0", false) +
		decisionReply("o3", false) + decisionReply("o1", true) + decisionReply("o4", false) +
		decisionReply("o9", false) + "{not json}\n" +
		`{"type":"error","id":"x1","error":"bad","error_kind":"bad_input"}` + "\n"
	go func() {
		_, _ = daemon.Write([]byte(lines))
		daemon.Close()
	}()
	cl.readers.Wait()

	oc := scoreDecisions(lg, pool, time.Hour)
	if oc.sent != 5 || oc.missing != 1 || oc.repeated != 1 || oc.unknown != 1 {
		t.Errorf("sent/missing/repeated/unknown = %d/%d/%d/%d, want 5/1/1/1", oc.sent, oc.missing, oc.repeated, oc.unknown)
	}
	if oc.decisions != 4 || oc.wrong != 1 {
		t.Errorf("decisions/wrong = %d/%d, want 4/1", oc.decisions, oc.wrong)
	}
	if got := lg.reqs[3].reply.ID; got != "o3" {
		t.Errorf("request 3 holds the answer to %q", got)
	}
	if other.answered.Load() != 1 || other.reqs[1].reply.ID != "c1" {
		t.Errorf("the other phase's answer was not filed on it")
	}
	if got := cl.badLines(); got != 2 {
		t.Errorf("bad lines = %d, want 2 (unparsable and unknown phase)", got)
	}
	if oc.failures() != 1 || len(oc.problems("open")) == 0 || oc.wrongNote("open") == "" {
		t.Errorf("failures %d, problems %v: a missing answer must fail the phase", oc.failures(), oc.problems("open"))
	}
	if !math.IsInf(quantile(sortedCopy(oc.latency), 1), 1) {
		t.Errorf("a missing answer must count as an infinite latency")
	}
}

func TestErrorLinesCountByKind(t *testing.T) {
	lg := newLedger("o", 3)
	t0 := time.Now()
	for i := range lg.reqs {
		lg.reqs[i].due, lg.reqs[i].sent = t0, t0
	}
	lg.record(0, reply{Type: "error", ID: "o0", ErrorKind: "overloaded"}, t0)
	lg.record(1, reply{Type: "error", ID: "o1", ErrorKind: "overloaded"}, t0)
	lg.record(2, reply{Type: "error", ID: "o2"}, t0)
	oc := scoreDecisions(lg, []*utterance{{}}, time.Hour)
	if oc.errKinds["overloaded"] != 2 || oc.errKinds["untyped"] != 1 || oc.failures() != 3 || oc.withinLimit != 0 {
		t.Errorf("error kinds %v, failures %d, within limit %d", oc.errKinds, oc.failures(), oc.withinLimit)
	}
}

func TestLatencyRunsFromDueTimeAndLatenessIsSentMinusDue(t *testing.T) {
	ms := time.Millisecond
	t0 := time.Now()
	lg := newLedger("o", 3)
	pool := []*utterance{{accept: false}}
	// Sent 30 ms late and answered 20 ms after sending: 50 ms from due.
	lg.reqs[0].due, lg.reqs[0].sent = t0, t0.Add(30*ms)
	lg.record(0, reply{Type: "decision", ID: "o0", Accepted: new(bool)}, t0.Add(50*ms))
	// On time, answered in 10 ms.
	lg.reqs[1].due, lg.reqs[1].sent = t0.Add(100*ms), t0.Add(100*ms)
	lg.record(1, reply{Type: "decision", ID: "o1", Accepted: new(bool)}, t0.Add(110*ms))
	// Never sent: neither attempted nor timed.
	oc := scoreDecisions(lg, pool, 40*ms)
	if oc.sent != 2 {
		t.Fatalf("sent = %d, want 2", oc.sent)
	}
	if oc.latency[0] != 50 || oc.latency[1] != 10 {
		t.Errorf("latencies %v, want [50 10]: the sender's lag belongs to the request", oc.latency)
	}
	if oc.lateness[0] != 30 || oc.lateness[1] != 0 {
		t.Errorf("lateness %v, want [30 0]", oc.lateness)
	}
	if oc.withinLimit != 1 {
		t.Errorf("within 40 ms limit = %d, want 1 (the late send misses it)", oc.withinLimit)
	}
}

func TestOpenLoopKeepsScheduleWhenDaemonStalls(t *testing.T) {
	lg := newLedger("o", 20)
	cl, daemon := pipeClient(t, lg)
	due := make([]time.Duration, len(lg.reqs))
	for i := range due {
		due[i] = time.Duration(i) * 2 * time.Millisecond
	}
	// The daemon reads nothing for 60 ms, then answers every line.
	go func() {
		time.Sleep(60 * time.Millisecond)
		sc := bufio.NewScanner(daemon)
		for sc.Scan() {
			id := strings.SplitN(strings.TrimPrefix(sc.Text(), `{"id":"`), `"`, 2)[0]
			if _, err := daemon.Write([]byte(decisionReply(id, false))); err != nil {
				return
			}
		}
	}()
	line := func(buf []byte, lg *ledger, i int) []byte {
		return append(buf, `{"id":"`+lg.tag+strconv.Itoa(i)+`"}`+"\n"...)
	}
	cl.openLoop(lg, due, func(int) int { return 0 }, line, 5*time.Second)
	cl.close()
	daemon.Close()

	start := lg.reqs[0].due
	oc := scoreDecisions(lg, []*utterance{{}}, time.Hour)
	if oc.missing != 0 {
		t.Fatalf("%d requests unanswered", oc.missing)
	}
	for i := range lg.reqs {
		q := &lg.reqs[i]
		if got := q.due.Sub(start); got != due[i]-due[0] {
			t.Errorf("request %d due at +%v, want +%v", i, got, due[i]-due[0])
		}
	}
	// The stall shows as latency of the requests due during it, not as
	// a late sender: the scheduler never waits on the socket.
	if late := quantile(sortedCopy(oc.lateness), 0.5); late > 20 {
		t.Errorf("median sender lateness %.1f ms: the schedule followed the stalled daemon", late)
	}
	// The schedule starts 20 ms after openLoop is called.
	if first := oc.latency[0]; first < 30 {
		t.Errorf("first request latency %.1f ms, want >= 30 (it waited out the stall)", first)
	}
}
