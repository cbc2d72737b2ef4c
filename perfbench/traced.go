package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"headtalk"
	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/dataset"
	"headtalk/internal/dsp"
	"headtalk/internal/features"
	"headtalk/internal/metrics"
	"headtalk/internal/mic"
	"headtalk/internal/orientation"
	"headtalk/internal/speech"
	"headtalk/internal/srp"
	"headtalk/internal/stream"
	"headtalk/internal/va"
)

// The daemon's defaults the traced run rebuilds in process: enrollment
// and spotter seed, enrollment sizes, and the default tenant's mode.
const (
	daemonSeed       = 7
	daemonOrientReps = 2
	daemonLivePairs  = 36
	// replayRounds is how many times the traced run replays the pool;
	// per-layer figures are medians over every replay.
	replayRounds = 2
	// maxBudgetGap is how far budget.coverage may sit from 1 on the
	// workloads whose decisions run the whole pipeline in core.
	maxBudgetGap = 0.05
)

// Span names. The budget children mirror, in order, the stages
// core.System.ProcessWake runs for one wake word.
const (
	spanDecide      = "core.decide"
	spanValidate    = "audio.validate"
	spanPlan        = "mic.channel_plan"
	spanBandpass    = "dsp.bandpass"
	spanMono        = "core.mono"
	spanLiveness    = "liveness.score"
	spanFingerprint = "liveness.fingerprint"
	spanFeatures    = "features.extract"
	spanPredict     = "orientation.predict"
	// Standalone probes, outside the budget.
	spanReadWAV     = "audio.read_wav"
	spanSRP         = "srp.allpairs"
	spanPreprocess  = "core.preprocess"
	spanProcessWake = "core.process_wake"
	spanCapture     = "corpus.capture"
	spanPush        = "stream.push"
	spanStreamDec   = "stream.decide"
)

// tracedRun rebuilds the daemon's tenant in process, replays the run's
// inputs through each layer's public functions with spans around every
// call, and returns the per-layer metrics: the replay's spans, plus the
// figures that come from the daemon's own responses in ph.
func tracedRun(o options, in *rendered, ph *phases, spansPath string) (map[string]metric, []string, error) {
	rec := newSpanRecorder()
	out := map[string]metric{}
	var problems []string

	// Enrollment with the daemon's options. Its progress lines mark the
	// phase boundaries: the orientation model trains between the last
	// orientation capture and the start of liveness enrollment.
	pw := &progressClock{}
	start := time.Now()
	enr, err := headtalk.Enroll(headtalk.EnrollmentOptions{
		Seed: daemonSeed, OrientationReps: daemonOrientReps, LivenessPairs: daemonLivePairs, Progress: pw,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("traced enrollment: %w", err)
	}
	out["enroll.s"] = metric{time.Since(start).Seconds(), "s"}
	trainS, err := pw.between("  orientation: ", "enrolling liveness detector")
	if err != nil {
		return nil, nil, err
	}
	out["orientation.train_s"] = metric{trainS.Seconds(), "s"}

	models, err := enr.Registry(headtalk.RegistryConfig{Metrics: metrics.NewRegistry()})
	if err != nil {
		return nil, nil, fmt.Errorf("traced registry: %w", err)
	}
	sys, err := core.NewSystem(core.Config{Models: models, Metrics: metrics.NewRegistry()})
	if err != nil {
		return nil, nil, fmt.Errorf("traced system: %w", err)
	}
	sys.SetMode(core.ModeHeadTalk)

	// The corpus layer: captures of enrollment conditions.
	gen := dataset.NewGenerator(daemonSeed + 2)
	for i := 0; i < 6; i++ {
		id := rec.begin(spanCapture, fmt.Sprintf("capture%d", i), 0)
		_, err := dataset.CaptureRecording(gen, dataset.Condition{Distance: dataset.Distances[i%len(dataset.Distances)], Rep: i + 1})
		rec.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("traced capture: %w", err)
		}
	}

	if in.opener != nil {
		d, err := sys.ProcessWake(context.Background(), in.opener.rec)
		if err != nil || !d.Accepted {
			return nil, nil, fmt.Errorf("traced opener not accepted (%s, %v)", d.Reason.Slug(), err)
		}
	}

	rp, err := newReplayer(sys)
	if err != nil {
		return nil, nil, err
	}
	var pwTotal, tracedTotal, plainTotal time.Duration
	var layerTotal time.Duration
	for round := 0; round < replayRounds; round++ {
		for i, u := range in.pool {
			req := fmt.Sprintf("r%d.%d", round, i)
			session := sys.SessionActive()

			// The program itself, untraced, is the total the budget must
			// add up to; the replay runs the same stages through each
			// layer's public functions, once without spans and once with
			// them. The three take turns going first, so none of them is
			// always the one that finds the input out of cache.
			var d core.Decision
			var slug string
			runs := []func() error{
				func() (err error) {
					t0 := time.Now()
					d, err = sys.ProcessWake(context.Background(), u.rec)
					took := time.Since(t0)
					rec.add(spanProcessWake, req, 0, t0, took)
					pwTotal += took
					return err
				},
				func() (err error) {
					t0 := time.Now()
					_, err = rp.decide(nil, req, u.rec, session)
					plainTotal += time.Since(t0)
					return err
				},
				func() (err error) {
					first := len(rec.spans)
					t0 := time.Now()
					slug, err = rp.decide(rec, req, u.rec, session)
					tracedTotal += time.Since(t0)
					for _, s := range rec.spans[first:] {
						if s.Parent != 0 {
							layerTotal += s.dur()
						}
					}
					return err
				},
			}
			for j := range runs {
				if err := runs[(round+i+j)%len(runs)](); err != nil {
					return nil, nil, fmt.Errorf("traced %s: %w", req, err)
				}
			}
			if slug != d.Reason.Slug() {
				problems = append(problems, fmt.Sprintf("traced replay of %s decided %s where ProcessWake decided %s", req, slug, d.Reason.Slug()))
			}

			// Standalone layer probes on the same input, run on every
			// workload so each layer is measured even where the
			// decision path skips it.
			if err := rp.probe(rec, req, u); err != nil {
				return nil, nil, err
			}
		}
	}
	coverage := float64(layerTotal) / float64(pwTotal)
	out["budget.coverage"] = metric{coverage, "ratio"}
	out["trace.overhead_share"] = metric{float64(tracedTotal-plainTotal) / float64(plainTotal), "share"}
	if o.workload != "stream" && (coverage < 1-maxBudgetGap || coverage > 1+maxBudgetGap) {
		problems = append(problems, fmt.Sprintf("budget.coverage %.3f: layer self times do not add up to core.process_wake within %.0f%%", coverage, 100*maxBudgetGap))
	}

	pushes, err := streamReplay(rec, sys, in.probeTL)
	if err != nil {
		return nil, nil, err
	}

	if err := writeSpans(spansPath, rec.spans); err != nil {
		return nil, nil, err
	}
	self := selfByName(rec.spans)
	p50 := func(name string) float64 { return median(self[name]) }
	tail := func(name string) float64 {
		s := sortedCopy(self[name])
		return quantile(s, tailQuantile(len(s)))
	}
	out["core.process_wake_ms.p50"] = metric{p50(spanProcessWake), "ms"}
	out["core.preprocess_ms.p50"] = metric{p50(spanPreprocess), "ms"}
	out["audio.validate_ms.p50"] = metric{p50(spanValidate), "ms"}
	out["mic.channel_plan_ms.p50"] = metric{p50(spanPlan), "ms"}
	out["dsp.bandpass_ms.p50"] = metric{p50(spanBandpass), "ms"}
	out["core.mono_ms.p50"] = metric{p50(spanMono), "ms"}
	out["audio.read_wav_ms.p50"] = metric{p50(spanReadWAV), "ms"}
	out["liveness.score_ms.p50"] = metric{p50(spanLiveness), "ms"}
	out["liveness.fingerprint_ms.p50"] = metric{p50(spanFingerprint), "ms"}
	out["features.extract_ms.p50"] = metric{p50(spanFeatures), "ms"}
	out["srp.allpairs_ms.p50"] = metric{p50(spanSRP), "ms"}
	out["orientation.predict_us.p50"] = metric{1000 * p50(spanPredict), "us"}
	out["corpus.capture_ms.p50"] = metric{p50(spanCapture), "ms"}
	out["stream.push_us.p50"] = metric{1000 * p50(spanPush), "us"}
	out["stream.push_us.tail"] = metric{1000 * tail(spanPush), "us"}
	var spotted, decided int
	for _, p := range pushes {
		switch p.status {
		case stream.StatusSpotted:
			spotted++
		case stream.StatusDecided:
			spotted++
			decided++
		}
	}
	out["stream.spotted_share"] = metric{float64(spotted) / float64(len(pushes)), "share"}
	out["stream.decided"] = metric{float64(decided), "count"}

	// Front-end overheads: a probe's round trip against the time the
	// program spent on the same input, probes sent one at a time.
	var over []float64
	for i := range ph.wavProbe.reqs {
		q := &ph.wavProbe.reqs[i]
		if q.answers.Load() > 0 && q.reply.Type == "decision" {
			over = append(over, ms(q.recv.Sub(q.sent))-float64(q.reply.TotalUS)/1000)
		}
	}
	out["headtalkd.overhead_ms.p50"] = metric{median(over), "ms"}
	var chunkOver []float64
	for i := range ph.frameProbe.reqs {
		q := &ph.frameProbe.reqs[i]
		if q.answers.Load() > 0 && i < len(pushes) {
			chunkOver = append(chunkOver, 1000*(ms(q.recv.Sub(q.sent))-ms(pushes[i].took)))
		}
	}
	out["headtalkd.chunk_overhead_us.p50"] = metric{median(chunkOver), "us"}
	for _, m := range out {
		if m.Value != m.Value {
			problems = append(problems, "traced run left a per-layer metric without samples")
			break
		}
	}
	return out, problems, nil
}

// replayer runs the stages of core.System.ProcessWake through each
// layer's public functions, on the system's own models and settings.
// Like a serving worker it reuses its scratch buffers, so the replay
// allocates what the program allocates.
type replayer struct {
	sys     *core.System
	cfg     core.Config
	bp      *dsp.IIRFilter
	health  mic.ArrayHealth
	pre     audio.Recording
	preBack []float64
	ws      features.Workspace
	mono    []float64
	scratch []float64
}

func newReplayer(sys *core.System) (*replayer, error) {
	cfg := sys.Config()
	bp, err := dsp.NewButterworthBandPass(cfg.BandpassOrder, cfg.BandpassLow, cfg.BandpassHigh, cfg.SampleRate)
	if err != nil {
		return nil, fmt.Errorf("replay band-pass: %w", err)
	}
	return &replayer{sys: sys, cfg: cfg, bp: bp}, nil
}

// bandpass filters every channel into the replayer's buffers.
func (rp *replayer) bandpass(rec *audio.Recording) *audio.Recording {
	n, nch := rec.Len(), len(rec.Channels)
	if cap(rp.preBack) < n*nch {
		rp.preBack = make([]float64, n*nch)
	}
	rp.pre = audio.Recording{SampleRate: rec.SampleRate, Channels: make([][]float64, nch)}
	for i, ch := range rec.Channels {
		rp.pre.Channels[i] = rp.bp.ApplyTo(rp.preBack[i*n:(i+1)*n:(i+1)*n], ch)
	}
	return &rp.pre
}

// decide replays one wake word and returns the reason slug the stages
// arrive at. session is whether a facing-validated session was open
// when the program decided the same input. With a nil recorder it
// records nothing.
func (rp *replayer) decide(r *spanRecorder, req string, rec *audio.Recording, session bool) (string, error) {
	set := rp.sys.ModelSet()
	root := r.begin(spanDecide, req, 0)
	defer r.end(root)
	step := func(name string, f func() error) error {
		id := r.begin(name, req, root)
		err := f()
		r.end(id)
		return err
	}
	if err := step(spanValidate, func() error { return audio.Validate(rec, rp.cfg.InputValidation) }); err != nil {
		return "bad_input", nil
	}
	_ = step(spanPlan, func() error { mic.AssessHealthInto(&rp.health, rec, rp.cfg.ChannelHealth); return nil })
	if rp.health.Degraded() > 0 {
		return "", fmt.Errorf("replay %s: degraded array (%v); the workloads render healthy captures", req, rp.health)
	}
	var pre *audio.Recording
	_ = step(spanBandpass, func() error { pre = rp.bandpass(rec); return nil })
	if set.Liveness != nil {
		_ = step(spanMono, func() error { rp.mono = pre.MonoInto(rp.mono); return nil })
		var score float64
		if err := step(spanLiveness, func() (err error) { score, err = set.Liveness.Score(rp.mono, rec.SampleRate); return err }); err != nil {
			return "", fmt.Errorf("replay %s: liveness: %w", req, err)
		}
		if score < rp.cfg.LivenessThreshold {
			return "not_live", nil
		}
	}
	if set.ArrayFingerprint != nil {
		var ok bool
		if err := step(spanFingerprint, func() (err error) { ok, _, err = set.ArrayFingerprint.Check(rec); return err }); err != nil {
			return "", fmt.Errorf("replay %s: fingerprint: %w", req, err)
		}
		if !ok {
			return "fingerprint_mismatch", nil
		}
	}
	if session {
		return "session_active", nil
	}
	if set.Orientation == nil {
		return "no_orientation", nil
	}
	src := pre
	if len(rp.cfg.ChannelSubset) > 0 {
		var err error
		if src, err = pre.Select(rp.cfg.ChannelSubset); err != nil {
			return "", fmt.Errorf("replay %s: %w", req, err)
		}
	}
	var feats []float64
	if err := step(spanFeatures, func() (err error) { feats, err = rp.ws.Extract(src, rp.cfg.Features); return err }); err != nil {
		return "", fmt.Errorf("replay %s: features: %w", req, err)
	}
	var pred int
	if err := step(spanPredict, func() error {
		if err := set.Orientation.CheckFeatures(feats); err != nil {
			return err
		}
		pred, _, rp.scratch = set.Orientation.PredictScore(feats, rp.scratch)
		return nil
	}); err != nil {
		return "", fmt.Errorf("replay %s: orientation: %w", req, err)
	}
	if pred != orientation.LabelFacing {
		return "not_facing", nil
	}
	return "accepted", nil
}

// probe times the layers the decision path may skip, on one input: WAV
// decoding of the request bytes, band-pass, feature extraction, the
// GCC pair sweep alone and classifier scoring. Each is its own root.
func (rp *replayer) probe(r *spanRecorder, req string, u *utterance) error {
	id := r.begin(spanReadWAV, req, 0)
	_, err := audio.ReadWAV(bytes.NewReader(u.wav))
	r.end(id)
	if err != nil {
		return fmt.Errorf("probe %s: %w", req, err)
	}
	id = r.begin(spanPreprocess, req, 0)
	pre, err := rp.sys.Preprocess(u.rec)
	r.end(id)
	if err != nil {
		return fmt.Errorf("probe %s: %w", req, err)
	}
	id = r.begin(spanFeatures, req, 0)
	feats, err := rp.ws.Extract(pre, rp.cfg.Features)
	r.end(id)
	if err != nil {
		return fmt.Errorf("probe %s: features: %w", req, err)
	}
	set := rp.sys.ModelSet()
	id = r.begin(spanPredict, req, 0)
	_, _, rp.scratch = set.Orientation.PredictScore(feats, rp.scratch)
	r.end(id)
	// features.Extract sweeps the GCC pairs over its analysis window:
	// the highest-energy AnalysisWindow samples, which for the rendered
	// wake words is the whole capture when it is no longer.
	chans := focus(pre, rp.cfg.Features.AnalysisWindow)
	f := rp.cfg.Features
	id = r.begin(spanSRP, req, 0)
	_, err = srp.AllPairs(chans, srp.PairOptions{MaxLag: f.MaxLag, PHAT: f.UsePHAT, SampleRate: f.SampleRate, BandLo: f.GCCBandLo, BandHi: f.GCCBandHi})
	r.end(id)
	if err != nil {
		return fmt.Errorf("probe %s: srp: %w", req, err)
	}
	return nil
}

// focus crops every channel to the highest-energy window of the given
// length on the channel mean, as feature extraction does (window 0 is
// the 32768-sample default).
func focus(rec *audio.Recording, window int) [][]float64 {
	if window == 0 {
		window = 32768
	}
	n := rec.Len()
	if window < 0 || n <= window {
		return rec.Channels
	}
	mono := rec.Mono()
	best, bestE := 0, -1.0
	for s := 0; s+window <= n; s += 1024 {
		var e float64
		for i := s; i < s+window; i += 4 {
			e += mono[i] * mono[i]
		}
		if e > bestE {
			best, bestE = s, e
		}
	}
	out := make([][]float64, len(rec.Channels))
	for i, ch := range rec.Channels {
		out[i] = ch[best : best+window]
	}
	return out
}

// pushResult is one in-process push of the probe timeline.
type pushResult struct {
	status stream.Status
	took   time.Duration
}

// streamReplay pushes the frames probe timeline chunk by chunk through
// a stream.Manager configured like the daemon's tenant, deciding
// spotted candidates on sys directly. The daemon's frames probe pushes
// the same chunks, so the two line up by index.
func streamReplay(r *spanRecorder, sys *core.System, tl *timeline) ([]pushResult, error) {
	spotter, err := va.NewSpotter(speech.WordComputer, 4, daemonSeed)
	if err != nil {
		return nil, fmt.Errorf("traced spotter: %w", err)
	}
	var cur int
	m, err := stream.NewManager(stream.Config{
		SampleRate: sampleRate,
		Channels:   len(tl.frames[0]),
		Spotter:    spotter,
		Speakers:   &stream.TrackerConfig{},
		Decide: func(ctx context.Context, rec *audio.Recording, _ stream.SpanDurations) (core.Decision, error) {
			id := r.begin(spanStreamDec, "probe", cur)
			defer r.end(id)
			return sys.ProcessWake(ctx, rec)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("traced stream manager: %w", err)
	}
	defer m.Close()
	out := make([]pushResult, probeChunks)
	for k := range out {
		frame := tl.frames[tl.at[k%tl.cycle()]]
		t0 := time.Now()
		cur = r.begin(spanPush, fmt.Sprintf("c%d", k), 0)
		res, err := m.Push(context.Background(), "probe", frame)
		r.end(cur)
		if err != nil {
			return nil, fmt.Errorf("traced push %d: %w", k, err)
		}
		out[k] = pushResult{status: res.Status, took: time.Since(t0)}
	}
	return out, nil
}

// progressClock timestamps the progress lines headtalk.Enroll writes.
type progressClock struct {
	lines []string
	at    []time.Time
}

func (p *progressClock) Write(b []byte) (int, error) {
	now := time.Now()
	for _, l := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		p.lines = append(p.lines, l)
		p.at = append(p.at, now)
	}
	return len(b), nil
}

// between returns the time from the last line starting with from to
// the first later line starting with to.
func (p *progressClock) between(from, to string) (time.Duration, error) {
	last := -1
	for i, l := range p.lines {
		if strings.HasPrefix(l, from) {
			last = i
		}
		if last >= 0 && strings.HasPrefix(l, to) {
			return p.at[i].Sub(p.at[last]), nil
		}
	}
	return 0, fmt.Errorf("enrollment progress lacks %q then %q; got %q", from, to, p.lines)
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
