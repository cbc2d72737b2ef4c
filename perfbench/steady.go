package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadyRuns is what steadiness mode records: every run's result line.
type steadyRuns struct {
	Workload string    `json:"workload"`
	Seeds    []uint64  `json:"seeds"`
	Runs     []*result `json:"runs"`
	// Incorrect lists the seeds whose run reported incorrect output.
	Incorrect []uint64 `json:"incorrect,omitempty"`
}

// benchSpec is the part of BENCHMARK.json steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs one workload several times, each run a fresh process
// with its own seed, and prints every metric's median and quartiles
// with the spread (IQR over median) the bounds in BENCHMARK.json are
// set against. With -against it also compares the medians with an
// earlier set of runs.
func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 5, "number of runs")
	seconds := fs.Int("seconds", 30, "seconds per run")
	seed0 := fs.Uint64("seed", 1, "seed of the first run; later runs count up")
	trace := fs.Int("trace", 0, "trace flag passed to every run")
	daemon := fs.String("daemon", "", "headtalkd binary")
	workDir := fs.String("workdir", ".bench_build/runs", "scratch directory")
	out := fs.String("out", "", "write the runs as JSON to this file")
	against := fs.String("against", "", "compare medians with runs written earlier by -out")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating perfbench: %w", err)
	}
	set := &steadyRuns{Workload: *workload}
	for i := 0; i < *runs; i++ {
		seed := *seed0 + uint64(i)
		cmd := exec.Command(self, "-workload", *workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(*seconds), "-trace", strconv.Itoa(*trace), "-daemon", *daemon, "-workdir", *workDir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		res, err := lastResult(stdout)
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		if !res.Correct {
			// An incorrect run's figures measure something else; it is
			// named and left out of the statistics.
			set.Incorrect = append(set.Incorrect, seed)
			continue
		}
		set.Seeds = append(set.Seeds, seed)
		set.Runs = append(set.Runs, res)
	}
	bounds := readBounds(*spec)
	printSpread(set, bounds)
	if *out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", *out, err)
		}
	}
	if *against != "" {
		data, err := os.ReadFile(*against)
		if err != nil {
			return fmt.Errorf("reading %s: %w", *against, err)
		}
		var base steadyRuns
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("parsing %s: %w", *against, err)
		}
		compareSets(&base, set, bounds)
	}
	if len(set.Incorrect) > 0 {
		return fmt.Errorf("runs with seeds %v reported incorrect output", set.Incorrect)
	}
	return nil
}

func lastResult(stdout []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}

type bound struct {
	better string
	share  float64
}

func readBounds(path string) map[string]bound {
	out := map[string]bound{}
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec benchSpec
	if json.Unmarshal(data, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = bound{m.Better, m.Bound}
	}
	return out
}

func (s *steadyRuns) values() map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range s.Runs {
		for k, m := range r.Metrics {
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

func printSpread(s *steadyRuns, bounds map[string]bound) {
	vals := s.values()
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s over %d seeds %v\n", s.Workload, len(s.Runs), s.Seeds)
	if len(s.Incorrect) > 0 {
		fmt.Printf("left out, incorrect: seeds %v\n", s.Incorrect)
	}
	fmt.Printf("%-16s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, k := range names {
		q1, q2, q3 := quartiles(vals[k])
		spread := (q3 - q1) / q2
		b := "-"
		if bd, ok := bounds[k]; ok {
			b = strconv.FormatFloat(bd.share, 'f', 3, 64)
		}
		fmt.Printf("%-16s %12.4f %12.4f %12.4f %8.4f %8s\n", k, q1, q2, q3, spread, b)
	}
}

// compareSets prints, per metric, how far the second set's median moved
// from the first's in the metric's worse direction, as a share of the
// first median, against the metric's bound.
func compareSets(base, cur *steadyRuns, bounds map[string]bound) {
	bv, cv := base.values(), cur.values()
	names := make([]string, 0, len(cv))
	for k := range cv {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-16s %12s %12s %8s %8s %s\n", "metric", "median A", "median B", "worse", "bound", "verdict")
	for _, k := range names {
		_, a, _ := quartiles(bv[k])
		_, b, _ := quartiles(cv[k])
		worse := (b - a) / a
		bd, ok := bounds[k]
		if ok && bd.better == "higher" {
			worse = -worse
		}
		verdict, lim := "ok", "-"
		if ok {
			lim = strconv.FormatFloat(bd.share, 'f', 3, 64)
			if worse > bd.share {
				verdict = "WORSE THAN BOUND"
			}
		}
		fmt.Printf("%-16s %12.4f %12.4f %8.4f %8s %s\n", k, a, b, worse, lim, verdict)
	}
}
