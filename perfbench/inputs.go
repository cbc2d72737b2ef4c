package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/dataset"
)

// utterance is one rendered wake word with its ground truth.
type utterance struct {
	cond dataset.Condition
	// accept is the ground truth: a live speaker facing the device must
	// be accepted, everything else rejected.
	accept bool
	wav    []byte
	path   string
	// rec is the WAV decoded back, i.e. exactly the samples headtalkd
	// decodes from path.
	rec     *audio.Recording
	seconds float64
}

// Workload parameters. Rates are absolute offered loads, about a third
// of what a quiet 2-CPU host sustains in the closed-loop phase: at half,
// a host slowed by other load pushes the open loop into queueing and
// the latency figures stop repeating. They are part of the workload
// definition and must not follow the host.
const (
	poolSize = 40

	fullPathRate  = 17.0 // requests/s
	fullPathLimit = 250 * time.Millisecond

	sessionRate  = 35.0
	sessionLimit = 120 * time.Millisecond
	// One utterance in sessionReplayEvery is a loudspeaker replay.
	sessionReplayEvery = 4

	streamSessions = 4
	streamWakes    = 8
	streamLimit    = 60 * time.Millisecond
	chunkSamples   = 480 // 10 ms at 48 kHz
	sampleRate     = 48000
	// closedOutstanding is how many requests each connection keeps in
	// flight in a closed-loop phase; connections × this stays well below
	// headtalkd's default queue of 64.
	closedOutstanding = 4
)

var replayProfiles = []string{"Sony SRS-X5", "Samsung Galaxy S21 Ultra", "Smart TV"}

// facingLive draws the enrolled speaker facing the device: within ±30°
// of the device, at a paper grid location.
func facingLive(rng *rand.Rand, dists []float64) dataset.Condition {
	return dataset.Condition{
		Session:   1 + rng.IntN(4),
		Rep:       1 + rng.IntN(1_000_000),
		Distance:  dists[rng.IntN(len(dists))],
		RadialDeg: dataset.Radials[rng.IntN(len(dataset.Radials))],
		AngleDeg:  -30 + 60*rng.Float64(),
	}
}

// opener is the session-opening wake word: the enrolled speaker facing
// the device from the paper's default M3 position.
func opener(seed uint64) dataset.Condition {
	return dataset.Condition{Rep: 1 + int(seed%1000), AngleDeg: 0}
}

// workloadConditions returns the pool of conditions a workload renders.
func workloadConditions(name string, rng *rand.Rand) ([]dataset.Condition, []bool, error) {
	var conds []dataset.Condition
	var accept []bool
	switch name {
	case "full-path":
		// The enrolled speaker turned away: head angle in the paper's
		// rear non-facing arc (135°–180° either side), 1 or 3 m away.
		for i := 0; i < poolSize; i++ {
			a := 135 + 45*rng.Float64()
			if rng.IntN(2) == 0 {
				a = -a
			}
			conds = append(conds, dataset.Condition{
				Session:   1 + rng.IntN(4),
				Rep:       1 + rng.IntN(1_000_000),
				Distance:  dataset.Distances[rng.IntN(2)],
				RadialDeg: dataset.Radials[rng.IntN(len(dataset.Radials))],
				AngleDeg:  a,
			})
			accept = append(accept, false)
		}
	case "session":
		for i := 0; i < poolSize; i++ {
			c := facingLive(rng, dataset.Distances)
			live := i%sessionReplayEvery != 0
			if !live {
				// A loudspeaker next to the device replaying the wake word.
				c.Distance = 1
				c.Replay = replayProfiles[rng.IntN(len(replayProfiles))]
			}
			conds = append(conds, c)
			accept = append(accept, live)
		}
	case "stream":
		for i := 0; i < streamWakes; i++ {
			conds = append(conds, facingLive(rng, dataset.Distances[:2]))
			accept = append(accept, true)
		}
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want full-path, session or stream)", name)
	}
	return conds, accept, nil
}

// renderAll captures every condition with dataset on nproc goroutines,
// writes each capture as a 16-bit WAV under dir and decodes it back.
func renderAll(gen *dataset.Generator, conds []dataset.Condition, accept []bool, dir string) ([]*utterance, error) {
	out := make([]*utterance, len(conds))
	errs := make([]error, len(conds))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(conds); i += workers {
				out[i], errs[i] = renderOne(gen, conds[i], accept[i], filepath.Join(dir, fmt.Sprintf("u%03d.wav", i)))
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func renderOne(gen *dataset.Generator, c dataset.Condition, accept bool, path string) (*utterance, error) {
	rec, err := dataset.CaptureRecording(gen, c)
	if err != nil {
		return nil, fmt.Errorf("rendering %v: %w", c, err)
	}
	var buf bytes.Buffer
	if err := audio.WriteWAV(&buf, rec); err != nil {
		return nil, fmt.Errorf("encoding %v: %w", c, err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	back, err := audio.ReadWAV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &utterance{
		cond:    c,
		accept:  accept,
		wav:     buf.Bytes(),
		path:    path,
		rec:     back,
		seconds: float64(len(back.Channels[0])) / back.SampleRate,
	}, nil
}

// wake is one wake word's place in a frames timeline, in chunk
// positions within one cycle.
type wake struct {
	start, end int
	// decideBy is the last position whose push may carry the decision.
	decideBy int
	utt      int
}

// timeline is the audio every streaming session plays, cyclically: a
// wake word every 1.8 s with quiet room in between. Chunk payloads
// are pre-encoded JSON arrays shared by every session; session s starts
// at its own offset so the sessions' wake words are staggered.
type timeline struct {
	payload [][]byte // per distinct chunk: `[[ch0...],[ch1...],...]`
	frames  [][][]float64
	at      []int // position in cycle -> payload index
	wakes   []wake
	// wakeOf maps a position in the cycle to its wake index, or -1.
	wakeOf []int
}

// Every wake word opens a slot of slotChunks chunks (1.8 s) whose rest
// is quiet room, so wake words are evenly spaced and any stretch of
// whole slots holds the same number of decisions. decideWithin is how
// long after a word's last chunk its decision may still arrive.
const (
	slotChunks    = 180
	decideWithin  = 40
	ambientChunks = 20
)

func (tl *timeline) cycle() int { return len(tl.at) }

// wakeAt returns the wake instance the absolute position p belongs to
// (distinct across cycles), or -1 between wake words.
func (tl *timeline) wakeAt(p int) int {
	w := tl.wakeOf[p%tl.cycle()]
	if w < 0 {
		return -1
	}
	return (p/tl.cycle())*len(tl.wakes) + w
}

// wakeInstances lists the wake instances whose whole window lies in the
// absolute position range [from, to].
func (tl *timeline) wakeInstances(from, to int) []int {
	var out []int
	n := tl.cycle()
	for c := from / n; c*n <= to; c++ {
		for w, wk := range tl.wakes {
			if c*n+wk.start >= from && c*n+wk.decideBy <= to {
				out = append(out, c*len(tl.wakes)+w)
			}
		}
	}
	return out
}

// buildTimeline lays the wake utterances out one per slot and encodes
// every distinct chunk once.
func buildTimeline(utts []*utterance, rng *rand.Rand) *timeline {
	tl := &timeline{}
	channels := len(utts[0].rec.Channels)
	add := func(frame [][]float64) int {
		tl.frames = append(tl.frames, frame)
		tl.payload = append(tl.payload, encodeFrame(frame))
		return len(tl.frames) - 1
	}
	// Gaps replay the quiet tail of the captures themselves: the room's
	// ambient floor and reverberation decay, below the stream's energy
	// floor.
	var noise []int
	for _, utt := range utts {
		total := len(utt.rec.Channels[0])
		for k := 1; k <= ambientChunks; k++ {
			off := total - k*chunkSamples
			frame := make([][]float64, channels)
			for c := range frame {
				frame[c] = append([]float64(nil), utt.rec.Channels[c][off:off+chunkSamples]...)
			}
			noise = append(noise, add(frame))
		}
	}
	for u, utt := range utts {
		wk := wake{start: len(tl.at), utt: u}
		total := len(utt.rec.Channels[0])
		// The word's chunks, up to the ambient tail the gaps reuse.
		for off := 0; off+chunkSamples <= total-ambientChunks*chunkSamples; off += chunkSamples {
			frame := make([][]float64, channels)
			for c := range frame {
				frame[c] = append([]float64(nil), utt.rec.Channels[c][off:off+chunkSamples]...)
			}
			tl.at = append(tl.at, add(frame))
			tl.wakeOf = append(tl.wakeOf, len(tl.wakes))
		}
		wk.end = len(tl.at) - 1
		wk.decideBy = wk.end + decideWithin
		tl.wakes = append(tl.wakes, wk)
		for len(tl.at) < (u+1)*slotChunks {
			tl.at = append(tl.at, noise[rng.IntN(len(noise))])
			tl.wakeOf = append(tl.wakeOf, -1)
		}
	}
	// The decision window runs into the following gap.
	for _, wk := range tl.wakes {
		for p := wk.end + 1; p <= wk.decideBy && p < len(tl.wakeOf); p++ {
			tl.wakeOf[p] = tl.wakeOf[wk.start]
		}
	}
	return tl
}

// encodeFrame renders one chunk as a JSON array of channel arrays with
// five significant digits, finer than the 16-bit grid.
func encodeFrame(frame [][]float64) []byte {
	b := make([]byte, 0, len(frame)*len(frame[0])*11)
	b = append(b, '[')
	for c, ch := range frame {
		if c > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i, v := range ch {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', 5, 64)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}
