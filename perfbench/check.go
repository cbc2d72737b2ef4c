package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// reply is the part of a headtalkd response line the checker reads.
type reply struct {
	Type        string   `json:"type"`
	ID          string   `json:"id"`
	Accepted    *bool    `json:"accepted"`
	ReasonSlug  string   `json:"reason_slug"`
	FacingScore *float64 `json:"facing_score"`
	QueueWaitUS int64    `json:"queue_wait_us"`
	TotalUS     int64    `json:"total_us"`
	Status      string   `json:"status"`
	Error       string   `json:"error"`
	ErrorKind   string   `json:"error_kind"`
}

func parseReply(b []byte) (reply, error) {
	var r reply
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("unparsable response line: %w", err)
	}
	return r, nil
}

// request is one line the load generator sends and what came back.
type request struct {
	due, sent, recv time.Time
	// item indexes the workload's utterance pool (decision lines) or
	// the session timeline position (frames lines).
	item int32
	sess int32
	// answers counts response lines carrying this request's id; more
	// than one is a protocol fault.
	answers atomic.Int32
	reply   reply
}

// ledger holds every request of one phase, addressed by id. Ids are the
// phase tag followed by the request's index, so responses that arrive
// out of order, on any connection, land on the right entry.
type ledger struct {
	tag  string
	reqs []request
	// closedLoop phases hand a send credit back to the connection on
	// every answer.
	closedLoop bool
	// unknown counts response lines with this phase's tag whose index
	// names no request.
	unknown atomic.Int64
	// answered counts requests with at least one answer; it is bumped
	// after the answer is filed.
	answered atomic.Int64
}

func newLedger(tag string, n int) *ledger {
	return &ledger{tag: tag, reqs: make([]request, n)}
}

// index maps a response id back to its request; ok is false for ids of
// another phase.
func (lg *ledger) index(id string) (int, bool) {
	if len(id) <= len(lg.tag) || id[:len(lg.tag)] != lg.tag {
		return 0, false
	}
	i, err := strconv.Atoi(id[len(lg.tag):])
	if err != nil {
		return 0, false
	}
	return i, true
}

// record files one response. The first answer wins; later ones are only
// counted. It is safe for concurrent use as long as each request is
// answered on the connection that sent it.
func (lg *ledger) record(i int, r reply, at time.Time) {
	if i < 0 || i >= len(lg.reqs) {
		lg.unknown.Add(1)
		return
	}
	q := &lg.reqs[i]
	if q.answers.Add(1) == 1 {
		q.reply = r
		q.recv = at
		lg.answered.Add(1)
	}
}

// outcome is the checker's verdict on one phase.
type outcome struct {
	sent     int
	missing  int
	repeated int
	unknown  int
	errKinds map[string]int
	// decisions counts decision outcomes (decision lines, or decided
	// stream lines); fullPath those that ran the orientation gate.
	decisions int
	fullPath  int
	wrong     int
	// missedWakes counts wake words in a frames timeline that never got
	// a decision; spurious counts decisions outside any wake word.
	missedWakes int
	spurious    int
	slugs       map[string]int
	// latency of every sent line from its due time, ms; +Inf when the
	// line failed or was never answered.
	latency []float64
	// decideLatency is the latency of decision outcomes only.
	decideLatency []float64
	// lateness of the sender, ms.
	lateness []float64
	// withinLimit counts lines answered, correct and within the limit.
	withinLimit int
	queueWait   []float64
	service     []float64
}

func newOutcome() *outcome {
	return &outcome{errKinds: map[string]int{}, slugs: map[string]int{}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// scoreDecisions checks a phase of whole-utterance requests against the
// pool's ground truth: accept exactly the live speakers facing the
// device.
func scoreDecisions(lg *ledger, pool []*utterance, limit time.Duration) *outcome {
	o := newOutcome()
	for i := range lg.reqs {
		q := &lg.reqs[i]
		if q.sent.IsZero() {
			continue
		}
		o.sent++
		o.lateness = append(o.lateness, ms(q.sent.Sub(q.due)))
		n := int(q.answers.Load())
		if n > 1 {
			o.repeated += n - 1
		}
		if n == 0 {
			o.missing++
			o.latency = append(o.latency, math.Inf(1))
			o.decideLatency = append(o.decideLatency, math.Inf(1))
			continue
		}
		r := q.reply
		if r.Type != "decision" || r.Accepted == nil {
			o.errKinds[kindOf(r)]++
			o.latency = append(o.latency, math.Inf(1))
			o.decideLatency = append(o.decideLatency, math.Inf(1))
			continue
		}
		lat := ms(q.recv.Sub(q.due))
		o.latency = append(o.latency, lat)
		o.decideLatency = append(o.decideLatency, lat)
		o.decisions++
		o.slugs[r.ReasonSlug]++
		if r.FacingScore != nil {
			o.fullPath++
		}
		o.queueWait = append(o.queueWait, float64(r.QueueWaitUS)/1000)
		o.service = append(o.service, float64(r.TotalUS-r.QueueWaitUS)/1000)
		ok := *r.Accepted == pool[q.item].accept
		if !ok {
			o.wrong++
		}
		if ok && q.recv.Sub(q.due) <= limit {
			o.withinLimit++
		}
	}
	o.unknown = int(lg.unknown.Load())
	return o
}

func kindOf(r reply) string {
	switch {
	case r.ErrorKind != "":
		return r.ErrorKind
	case r.Type == "error":
		return "untyped"
	default:
		return "unexpected_" + r.Type
	}
}

// scoreFrames checks a phase of frames pushes. Every wake word in a
// session's timeline must be decided exactly once, accepted (the
// speaker is the enrolled user facing the device), by a push inside the
// word's window; a decision anywhere else is spurious.
func scoreFrames(lg *ledger, tl *timeline, limit time.Duration) *outcome {
	o := newOutcome()
	type key struct{ sess, wake int }
	decided := map[key]int{}
	for i := range lg.reqs {
		q := &lg.reqs[i]
		if q.sent.IsZero() {
			continue
		}
		o.sent++
		o.lateness = append(o.lateness, ms(q.sent.Sub(q.due)))
		n := int(q.answers.Load())
		if n > 1 {
			o.repeated += n - 1
		}
		if n == 0 {
			o.missing++
			o.latency = append(o.latency, math.Inf(1))
			continue
		}
		r := q.reply
		if r.Type != "stream" {
			o.errKinds[kindOf(r)]++
			o.latency = append(o.latency, math.Inf(1))
			continue
		}
		lat := ms(q.recv.Sub(q.due))
		o.latency = append(o.latency, lat)
		ok := true
		if r.Status == "decided" {
			o.decisions++
			o.decideLatency = append(o.decideLatency, lat)
			o.slugs[r.ReasonSlug]++
			if r.FacingScore != nil {
				o.fullPath++
			}
			w := tl.wakeAt(int(q.item))
			switch {
			case w < 0:
				o.spurious++
				ok = false
			default:
				decided[key{int(q.sess), w}]++
				if r.Accepted == nil || !*r.Accepted {
					ok = false
				}
			}
			if !ok {
				o.wrong++
			}
		}
		if ok && q.recv.Sub(q.due) <= limit {
			o.withinLimit++
		}
	}
	// Wake words whose whole window was pushed must have been decided.
	for sess, r := range lg.positionsBySession() {
		for _, w := range tl.wakeInstances(r[0], r[1]) {
			switch c := decided[key{sess, w}]; {
			case c == 0:
				o.missedWakes++
				o.wrong++
			case c > 1:
				o.spurious += c - 1
				o.wrong += c - 1
			}
		}
	}
	o.unknown = int(lg.unknown.Load())
	return o
}

// scoreAnswers checks only that every sent line got exactly one
// well-formed, non-error answer: the frames probe pushes whatever the
// workload's utterances are, so its decisions carry no ground truth.
func scoreAnswers(lg *ledger) *outcome {
	o := newOutcome()
	for i := range lg.reqs {
		q := &lg.reqs[i]
		if q.sent.IsZero() {
			continue
		}
		o.sent++
		switch n := int(q.answers.Load()); {
		case n == 0:
			o.missing++
		case q.reply.Type == "error":
			o.errKinds[kindOf(q.reply)]++
		case n > 1:
			o.repeated += n - 1
		}
	}
	o.unknown = int(lg.unknown.Load())
	return o
}

// positionsBySession returns, per session, the lowest and highest
// timeline positions the phase pushed.
func (lg *ledger) positionsBySession() map[int][2]int {
	out := map[int][2]int{}
	for i := range lg.reqs {
		q := &lg.reqs[i]
		if q.sent.IsZero() {
			continue
		}
		s, p := int(q.sess), int(q.item)
		r, ok := out[s]
		if !ok {
			r = [2]int{p, p}
		}
		r[0], r[1] = min(r[0], p), max(r[1], p)
		out[s] = r
	}
	return out
}

// failures is every sent line that did not come back as a well-formed,
// non-error answer.
func (o *outcome) failures() int {
	n := o.missing
	for _, c := range o.errKinds {
		n += c
	}
	return n
}

// problems lists what makes the phase's output incorrect: lines that
// were not answered exactly once with a well-formed, non-error line.
func (o *outcome) problems(phase string) []string {
	var out []string
	if o.missing > 0 {
		out = append(out, fmt.Sprintf("%s: %d of %d requests never answered", phase, o.missing, o.sent))
	}
	if o.repeated > 0 || o.unknown > 0 {
		out = append(out, fmt.Sprintf("%s: %d repeated and %d unknown response ids", phase, o.repeated, o.unknown))
	}
	if len(o.errKinds) > 0 {
		kinds := make([]string, 0, len(o.errKinds))
		for k, c := range o.errKinds {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, c))
		}
		sort.Strings(kinds)
		out = append(out, fmt.Sprintf("%s: error lines %v", phase, kinds))
	}
	return out
}

// wrongNote describes the phase's decisions that disagree with the
// ground truth, or is empty. Wrong decisions are the gates' accuracy,
// reported through right_share; they do not make a run incorrect.
func (o *outcome) wrongNote(phase string) string {
	if o.wrong == 0 {
		return ""
	}
	return fmt.Sprintf("%s: %d wrong decisions (%d missed wake words, %d spurious) %v", phase, o.wrong, o.missedWakes, o.spurious, o.slugs)
}
