// Command perfbench is the repository's end-to-end benchmark. It
// renders a workload's inputs from a seed, starts a headtalkd process
// with its defaults, drives it over loopback TCP with an open-loop and a
// closed-loop phase, checks every response, and prints one JSON result
// line. With -trace 1 it also replays the same inputs in-process through
// each layer's public functions and reports the per-layer budget.
//
// Usage (from the repository root, through the wrapper that builds
// headtalkd and this program):
//
//	bash perfbench/run.sh --workload full-path --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh steady --workload stream --runs 10 --seconds 30
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"headtalk/internal/dataset"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	daemon   string
	workDir  string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steadyMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "full-path | session | stream")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds (open-loop plus closed-loop phase)")
	flag.IntVar(&trace, "trace", 0, "1: also run the traced per-layer replay and report per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "headtalkd binary built from the tree under test")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/runs", "scratch directory for rendered inputs and spans")
	flag.Parse()
	o.trace = trace == 1
	if o.daemon == "" || o.workload == "" || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -workload, -daemon and -seconds >= 1 are required")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// openPhase is the open-loop phase's length; the closed-loop phase
// takes the rest of -seconds. The stream workload gets the larger share
// because its wake-word decisions are sparse.
func openPhase(o options) time.Duration {
	share := 0.75
	if o.workload == "stream" {
		share = 0.8
	}
	return time.Duration(share * float64(o.seconds) * float64(time.Second))
}

// latenessShare bounds the open-loop sender's tail lateness as a share
// of the workload's latency limit: beyond it the offered load was not
// what the schedule says and the run does not count.
const latenessShare = 0.2

// rngFor derives the workload's input RNG from the seed.
func rngFor(seed uint64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// rendered is a workload's inputs, made before headtalkd starts.
type rendered struct {
	pool   []*utterance
	opener *utterance
	tl     *timeline
	// probeTL is the timeline the traced run's frames probe streams: the
	// stream workload's own, or the workload's first utterances with
	// gaps between them.
	probeTL *timeline
	// open-loop schedule: due offsets and, for decision workloads, pool
	// items.
	due  []time.Duration
	item []int
	rate float64
	// limit is the workload's latency limit for slo_share.
	limit time.Duration
	took  time.Duration
}

func render(o options, dir string) (*rendered, error) {
	start := time.Now()
	rng := rngFor(o.seed, o.workload)
	conds, accept, err := workloadConditions(o.workload, rng)
	if err != nil {
		return nil, err
	}
	gen := dataset.NewGenerator(o.seed)
	r := &rendered{}
	if r.pool, err = renderAll(gen, conds, accept, dir); err != nil {
		return nil, err
	}
	if o.workload != "full-path" {
		if r.opener, err = renderOne(gen, opener(o.seed), true, filepath.Join(dir, "opener.wav")); err != nil {
			return nil, err
		}
	}
	open := openPhase(o)
	switch o.workload {
	case "full-path", "session":
		r.rate, r.limit = fullPathRate, fullPathLimit
		if o.workload == "session" {
			r.rate, r.limit = sessionRate, sessionLimit
		}
		// A fixed count of evenly spaced arrivals, so every run's tail
		// percentile rests on the same number of samples. Poisson
		// arrivals at this rate queue behind one another in a few
		// percent of requests, right where the tail is read: there a
		// few percent of host speed moved the tail by a third from run
		// to run. Evenly spaced, a request queues only once service
		// time passes twice the spacing, and the tail is the service
		// time's. The run's seed picks the utterances and which one
		// each arrival sends.
		n := int(math.Round(r.rate * open.Seconds()))
		var order []int
		for i := 0; i < n; i++ {
			r.due = append(r.due, time.Duration(float64(i+1)/r.rate*float64(time.Second)))
			// Every utterance is sent equally often, in a seeded order
			// that changes each pass over the pool.
			if i%len(r.pool) == 0 {
				order = rng.Perm(len(r.pool))
			}
			r.item = append(r.item, order[i%len(r.pool)])
		}
	case "stream":
		r.limit = streamLimit
		r.tl = buildTimeline(r.pool, rng)
		r.rate = streamSessions * 1000 / 10
		r.probeTL = r.tl
	}
	if o.trace && r.probeTL == nil {
		r.probeTL = buildTimeline(r.pool[:4], rng)
	}
	r.took = time.Since(start)
	return r, nil
}

// sessionOffset is where session s starts in the timeline: on another
// wake word than the other sessions and at another phase of its slot,
// so that no two sessions decide at the same moment, as independent
// devices would not.
func sessionOffset(tl *timeline, s int) int {
	return s*tl.cycle()/streamSessions + s*slotChunks/streamSessions
}

// streamSchedule fills lg with the next chunks pushes of every session,
// starting at each session's position in pos, at the real-time 10 ms
// cadence with the sessions staggered across each period. It returns
// the due offsets and advances pos past the scheduled chunks.
func streamSchedule(lg *ledger, pos []int, chunks int) []time.Duration {
	const period = 10 * time.Millisecond
	due := make([]time.Duration, 0, chunks*len(pos))
	for k := 0; k < chunks; k++ {
		for s := range pos {
			i := len(due)
			lg.reqs[i].item, lg.reqs[i].sess = int32(pos[s]+k), int32(s)
			due = append(due, time.Duration(k)*period+time.Duration(s)*period/time.Duration(len(pos)))
		}
	}
	for s := range pos {
		pos[s] += chunks
	}
	return due
}

const (
	// closedSlots is how many wake-word slots every stream session
	// pushes in the closed-loop phase.
	closedSlots      = 8
	streamWarmChunks = 100
	probeChunks      = 600
	drain            = 10 * time.Second
)

func run(o options) (*result, error) {
	dir := filepath.Join(o.workDir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	defer os.RemoveAll(dir)

	in, err := render(o, dir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: rendered %d utterances in %.2fs\n", o.workload, o.seed, len(in.pool), in.took.Seconds())

	d, err := startDaemon(o.daemon)
	if err != nil {
		return nil, err
	}
	ph, err := drive(o, in, d)
	rss, rssErr := d.peakRSSMB()
	stopErr := d.stop()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if stopErr != nil {
		return nil, stopErr
	}
	ph.rss = rss
	ph.setup = d.setup
	res := ph.result(o, in)
	if o.trace {
		spans := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		layers, problems, err := tracedRun(o, in, ph, spans)
		if err != nil {
			return nil, err
		}
		for k, v := range ph.layerMetrics() {
			layers[k] = v
		}
		layers["corpus.render_s"] = metric{in.took.Seconds(), "s"}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", spans)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", p)
		}
		res.Correct = res.Correct && len(problems) == 0
		res.Metrics = layers
		printMetrics(layers)
	}
	return res, nil
}

// phases holds every ledger of one run.
type phases struct {
	openr, warm, open     *ledger
	closed                *ledger
	closedStart, closedTo time.Time
	wavProbe, frameProbe  *ledger
	badLines              int64
	rss                   float64
	setup                 time.Duration
	outcomes              []*outcome
	openOC, wavOC         *outcome
}

// drive runs the phases against the daemon: warm-up, the open loop and
// the closed loop, plus the probes a traced run needs.
func drive(o options, in *rendered, d *daemon) (*phases, error) {
	nconn := runtime.NumCPU()
	open := openPhase(o)
	closed := time.Duration(o.seconds)*time.Second - open
	ph := &phases{openr: newLedger("a", 1)}
	stream := in.tl != nil
	if stream {
		ph.warm = newLedger("w", streamSessions*streamWarmChunks)
		ph.open = newLedger("o", streamSessions*int(open/(10*time.Millisecond)))
		ph.closed = newLedger("c", 200_000)
	} else {
		ph.warm = newLedger("w", len(in.pool))
		ph.open = newLedger("o", len(in.due))
		ph.closed = newLedger("c", 20_000)
	}
	ph.closed.closedLoop = true
	ph.warm.closedLoop = !stream
	ph.wavProbe = newLedger("p", 2*len(in.pool))
	ph.wavProbe.closedLoop = true
	ph.frameProbe = newLedger("q", probeChunks)
	ph.frameProbe.closedLoop = true
	cl, err := dial(d.addr, nconn, []*ledger{ph.openr, ph.warm, ph.open, ph.closed, ph.wavProbe, ph.frameProbe})
	if err != nil {
		return nil, err
	}
	defer func() { ph.badLines = cl.badLines() }()
	defer cl.close()

	pool := in.pool
	wavLine := decisionLine(pool)
	if in.opener != nil {
		// The session opener decides alone, before anything else, so the
		// session is open when the measured phases start.
		openerPool := []*utterance{in.opener}
		cl.openLoop(ph.openr, []time.Duration{0}, func(int) int { return 0 }, decisionLine(openerPool), drain)
	}
	if !stream {
		// Warm-up: every utterance once, one at a time, unmeasured.
		cl.closedLoopOne(ph.warm, func(k int) (int, int) { return k, 0 }, wavLine)
		for i := range in.due {
			ph.open.reqs[i].item = int32(in.item[i])
		}
		cl.openLoop(ph.open, in.due, func(i int) int { return i % nconn }, wavLine, drain)
		ph.closedStart, ph.closedTo = cl.closedLoop(ph.closed, closed, nil, func(c, k int) (int, int) {
			return (k*nconn + c) % len(pool), 0
		}, wavLine, drain)
	} else {
		fl := framesLine(in.tl, "s")
		pos := make([]int, streamSessions)
		for s := range pos {
			pos[s] = sessionOffset(in.tl, s)
		}
		// Session s rides connection s mod nconn. The warm-up, every
		// session's first second, is unmeasured; the open loop follows.
		sessConn := func(lg *ledger) func(int) int {
			return func(i int) int { return int(lg.reqs[i].sess) % nconn }
		}
		cl.openLoop(ph.warm, streamSchedule(ph.warm, pos, streamWarmChunks), sessConn(ph.warm), fl, drain)
		cl.openLoop(ph.open, streamSchedule(ph.open, pos, len(ph.open.reqs)/streamSessions), sessConn(ph.open), fl, drain)
		// Closed loop, a fixed amount of work: each session pushes
		// closedSlots more slots, so every run decides the same number
		// of wake words; each connection cycles through its sessions.
		perSession := closedSlots * slotChunks
		mine := make([][]int, nconn)
		for s := 0; s < streamSessions; s++ {
			mine[s%nconn] = append(mine[s%nconn], s)
		}
		ph.closedStart, ph.closedTo = cl.closedLoop(ph.closed, time.Minute, func(c int) int { return perSession * len(mine[c]) }, func(c, k int) (int, int) {
			s := mine[c][k%len(mine[c])]
			p := pos[s]
			pos[s]++
			return p, s
		}, fl, drain)
	}
	if o.trace {
		// Probes: one request at a time on one connection, so a
		// response's latency minus the daemon's own timing is the
		// per-request overhead of the daemon's front end.
		probe := &client{conns: cl.conns[:1], ledgers: cl.ledgers}
		probe.closedLoopOne(ph.wavProbe, func(k int) (int, int) { return k % len(pool), 0 }, wavLine)
		probe.closedLoopOne(ph.frameProbe, func(k int) (int, int) { return k, 0 }, framesLine(in.probeTL, "probe"))
	}
	return ph, nil
}

// result scores every phase and assembles the end-to-end metrics.
func (ph *phases) result(o options, in *rendered) *result {
	var problems []string
	var scored []*outcome
	score := func(name string, lg *ledger, frames bool) *outcome {
		var oc *outcome
		if frames {
			oc = scoreFrames(lg, in.tl, in.limit)
		} else {
			pool := in.pool
			if lg == ph.openr {
				pool = []*utterance{in.opener}
			}
			oc = scoreDecisions(lg, pool, in.limit)
		}
		problems = append(problems, oc.problems(name)...)
		if note := oc.wrongNote(name); note != "" {
			fmt.Fprintln(os.Stderr, "perfbench: WRONG DECISIONS:", note)
		}
		scored = append(scored, oc)
		return oc
	}
	stream := in.tl != nil
	if in.opener != nil {
		score("opener", ph.openr, false)
	}
	score("warm-up", ph.warm, stream)
	open := score("open-loop", ph.open, stream)
	closed := score("closed-loop", ph.closed, stream)
	ph.openOC = open
	if o.trace {
		ph.wavOC = score("wav probe", ph.wavProbe, false)
		oc := scoreAnswers(ph.frameProbe)
		problems = append(problems, oc.problems("frames probe")...)
		scored = append(scored, oc)
	}
	if ph.badLines > 0 {
		problems = append(problems, fmt.Sprintf("%d response lines unparsable or with unknown ids", ph.badLines))
	}
	switch o.workload {
	case "full-path":
		for _, oc := range scored {
			if oc.fullPath != oc.decisions {
				problems = append(problems, fmt.Sprintf("full-path: only %d of %d decisions ran the orientation gate; a false accept opened a session that later non-facing speakers rode", oc.fullPath, oc.decisions))
				break
			}
		}
	case "session":
		for _, oc := range scored[1:] {
			if oc.fullPath > 0 {
				problems = append(problems, fmt.Sprintf("session: %d decisions after warm-up ran the orientation gate", oc.fullPath))
				break
			}
		}
	}
	lateQ := tailQuantile(len(open.lateness))
	late := quantile(sortedCopy(open.lateness), lateQ)
	if maxLate := latenessShare * ms(in.limit); late > maxLate {
		problems = append(problems, fmt.Sprintf("open-loop sender p%.1f lateness %.2f ms exceeds %.1f ms: offered load not as scheduled", 100*lateQ, late, maxLate))
	}

	window := ph.closedTo.Sub(ph.closedStart).Seconds()
	var decided int
	var audioSec float64
	for i := range ph.closed.reqs {
		q := &ph.closed.reqs[i]
		if q.sent.IsZero() || q.answers.Load() == 0 {
			continue
		}
		if stream {
			audioSec += float64(chunkSamples) / sampleRate
			if q.reply.Status == "decided" {
				decided++
			}
		} else if q.reply.Type == "decision" {
			decided++
			audioSec += in.pool[q.item].seconds
		}
	}

	attempted, failed, decisions, wrong := 0, 0, 0, 0
	for _, oc := range scored {
		attempted += oc.sent
		failed += oc.failures()
		decisions += oc.decisions
		wrong += oc.wrong
	}
	dl := sortedCopy(open.decideLatency)
	al := sortedCopy(open.latency)
	// On decision workloads every line is a decision, and both tails
	// are capped at decisionTail.
	dq, aq := min(tailQuantile(len(dl)), decisionTail), tailQuantile(len(al))
	if !stream {
		aq = min(aq, decisionTail)
	}
	res := &result{
		Correct:   len(problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {ph.setup.Seconds(), "s"},
			"decide_p50_ms":  {quantile(dl, 0.5), "ms"},
			"decide_tail_ms": {quantile(dl, dq), "ms"},
			"chunk_p50_ms":   {quantile(al, 0.5), "ms"},
			"chunk_tail_ms":  {quantile(al, aq), "ms"},
			"slo_share":      {float64(open.withinLimit) / float64(max(open.sent, 1)), "share"},
			"throughput_dps": {float64(decided) / window, "1/s"},
			"stream_rt_x":    {audioSec / window, "x"},
			"answered_share": {1 - float64(failed)/float64(max(attempted, 1)), "share"},
			"right_share":    {1 - float64(wrong)/float64(max(decisions, 1)), "share"},
			"peak_rss_mb":    {ph.rss, "MB"},
		},
	}
	fmt.Fprintf(os.Stderr, "perfbench: open loop %d lines at %.0f/s (%d decisions, tail = p%.1f of decisions, p%.1f of lines), sender lateness p50 %.3f ms p%.1f %.3f ms; closed loop %d lines in %.2fs\n",
		open.sent, in.rate, len(dl), 100*dq, 100*aq,
		quantile(sortedCopy(open.lateness), 0.5), 100*lateQ, late, closed.sent, window)
	fmt.Fprintf(os.Stderr, "perfbench: decision reasons %v\n", open.slugs)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", p)
	}
	printMetrics(res.Metrics)
	ph.outcomes = scored
	return res
}

// printMetrics writes one line of name=value unit pairs to stderr.
func printMetrics(m map[string]metric) {
	var b strings.Builder
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&b, " %s=%.4g %s", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintln(os.Stderr, "perfbench:"+b.String())
}

// layerMetrics are the per-layer figures that come from the daemon's
// own responses: serve timing fields, reason slugs and error kinds of
// the measured open loop, and the sender's lateness.
func (ph *phases) layerMetrics() map[string]metric {
	open := ph.openOC
	// Stream lines carry no serve timing; the wav probe's do.
	timed := open
	if len(timed.queueWait) == 0 {
		timed = ph.wavOC
	}
	qw, sv := sortedCopy(timed.queueWait), sortedCopy(timed.service)
	out := map[string]metric{
		"serve.queue_wait_ms.p50":  {quantile(qw, 0.5), "ms"},
		"serve.queue_wait_ms.tail": {quantile(qw, tailQuantile(len(qw))), "ms"},
		"serve.service_ms.p50":     {quantile(sv, 0.5), "ms"},
		"core.full_path_share":     {float64(open.fullPath) / float64(max(open.decisions, 1)), "share"},
		"gen.late_ms.tail":         {quantile(sortedCopy(open.lateness), tailQuantile(len(open.lateness))), "ms"},
	}
	var errs int
	for _, oc := range ph.outcomes {
		for _, c := range oc.errKinds {
			errs += c
		}
	}
	out["serve.errors"] = metric{float64(errs), "count"}
	for _, slug := range reportedSlugs {
		out["core.reason."+slug] = metric{float64(open.slugs[slug]), "count"}
	}
	return out
}

// reportedSlugs are the decision reasons the workloads produce; the
// traced run reports each one's count in the measured open loop.
var reportedSlugs = []string{"accepted", "session_active", "not_live", "fingerprint_mismatch", "not_facing"}
