// Command perfbench is the repository's end-to-end benchmark. In one
// process it starts a central manager, four imds and a client, drives a
// paper workload through region.Cache -> core.Client -> bulk ->
// transport -> imd -> pool, checks every byte returned against a model
// derived from the seed, and prints the end-to-end metrics.
//
//	perfbench --workload dmine-scan --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it runs the workload twice, untraced and then with a
// span recorder at every layer boundary, and prints the per-layer
// metrics. With --repeat N it runs N untraced runs as child processes
// (seeds seed..seed+N-1) and prints the spread of every end-to-end
// metric. The last line of standard output is always one JSON object.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// setupsPerRun is how many times an untraced run sets the stack up;
// setup_s is their median.
const setupsPerRun = 5

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase; whole rounds are run")
	trace := fs.Int("trace", 0, "1 runs untraced then traced and prints the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run N untraced child runs and print the spread of each metric")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	sp, err := lookupSpec(*workload)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	switch {
	case *repeat > 0:
		return steadiness(sp, *seed, *seconds, *repeat)
	case *trace == 1:
		return traced(sp, *seed, *seconds)
	case *trace == 0:
		return untraced(sp, *seed, *seconds)
	}
	return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
}

func untraced(sp *spec, seed int64, seconds float64) error {
	res, err := runWorkload(sp, seed, seconds, setupsPerRun, nil, nil)
	if err != nil {
		return err
	}
	printSummary(sp, seed, res)
	return emit(res.correct, res.attempted, res.failed, res.endToEnd())
}

func traced(sp *spec, seed int64, seconds float64) error {
	base, err := runWorkload(sp, seed, seconds, 1, nil, nil)
	if err != nil {
		return err
	}
	printSummary(sp, seed, base)
	rec := newRecorder()
	res, err := runWorkload(sp, seed, seconds, 1, rec, nil)
	if err != nil {
		return err
	}
	printSummary(sp, seed, res)
	lr := rec.report(res)
	if len(lr.spans) == 0 {
		return errNoSpans
	}
	for _, l := range lr.layerSelf() {
		fmt.Println(l)
	}
	for _, l := range lr.frameTable() {
		fmt.Println(l)
	}
	ms := lr.metrics(base)
	for _, m := range ms {
		fmt.Printf("%-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	return emit(base.correct && res.correct, base.attempted+res.attempted, base.failed+res.failed, ms)
}

// printSummary prints a run's figures for people; the JSON line that
// follows is for programs.
func printSummary(sp *spec, seed int64, r *result) {
	lat := durationsUS(r.readLat)
	hb, ha := r.before.core, r.after.core
	fmt.Printf("workload %s seed %d: %d rounds, %d ops (%d Cread, %d Cwrite) in %.3fs, attempted %d failed %d correct %v\n",
		sp.name, seed, r.rounds, r.ops(), r.creads, r.cwrites, r.elapsed.Seconds(), r.attempted, r.failed, r.correct)
	fmt.Printf("  setups %v\n", r.setups)
	fmt.Printf("  whole run: %.1f MB/s, %.1f us CPU/op; reads: %d samples, p50 %.1fus p90 %.1fus p99 %.1fus; %d local, %d read-through\n",
		float64(r.bytes)/mb/r.elapsed.Seconds(), float64(r.cpu)/1e3/float64(r.ops()),
		len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), r.localReads, r.throughReads)
	tput := make([]float64, len(r.perRound))
	for i, rs := range r.perRound {
		tput[i] = float64(rs.bytes) / mb / rs.elapsed.Seconds()
	}
	q1, q2, q3 := quartiles(tput)
	fmt.Printf("  per-round MB/s: q1 %.1f median %.1f q3 %.1f over %d rounds\n", q1, q2, q3, len(tput))
	fmt.Printf("# hedged_reads=%d hedge_wins=%d gc_cycles=%d read_samples=%d\n",
		ha.HedgedReads-hb.HedgedReads, ha.HedgeWins-hb.HedgeWins, r.mem1.NumGC-r.mem0.NumGC, len(lat))
	for _, m := range r.endToEnd() {
		fmt.Printf("  %-16s %12.4f %s\n", m.name, m.value, m.unit)
	}
	for _, p := range r.problems {
		fmt.Println("  PROBLEM:", p)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the result line.
func emit(correct bool, attempted, failed int64, ms []metric) error {
	out := jsonResult{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// steadiness runs n untraced runs back to back, each a child process
// as the benchmark's users run it, and prints for every end-to-end
// metric the median, the quartiles and the spread (interquartile
// distance over the median), with each run's hedged reads and GC
// cycles alongside.
func steadiness(sp *spec, seed int64, seconds float64, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var attempted, failed int64
	correct := true
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", sp.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		var info string
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			line := sc.Bytes()
			if strings.HasPrefix(string(line), "# ") {
				info = string(line[2:])
			}
			last = append(last[:0], line...)
		}
		var jr jsonResult
		if err := json.Unmarshal(last, &jr); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", s, err)
		}
		correct = correct && jr.Correct
		attempted += jr.Attempted
		failed += jr.Failed
		var parts []string
		for name, m := range jr.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			parts = append(parts, fmt.Sprintf("%s=%.4g", name, m.Value))
		}
		sort.Strings(parts)
		fmt.Printf("seed %d: failed %d/%d %s %s\n", s, jr.Failed, jr.Attempted, info, strings.Join(parts, " "))
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	var ms []metric
	fmt.Printf("%-18s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-18s %12.4f %12.4f %12.4f %7.2f%%\n", name, q1, med, q3, spread*100)
		ms = append(ms, metric{name, units[name], med})
	}
	return emit(correct, attempted, failed, ms)
}

// quartiles follows Python's statistics.quantiles(values, n=4) in its
// default (exclusive) method.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(j int) float64 {
		m := n + 1
		idx := j * m / 4
		rem := j*m - idx*4
		if idx < 1 {
			return s[0]
		}
		if idx >= n {
			return s[n-1]
		}
		return s[idx-1] + (s[idx]-s[idx-1])*float64(rem)/4
	}
	return at(1), at(2), at(3)
}
