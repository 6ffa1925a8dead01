// Command dedupbench is the repository benchmark. It drives the dedupd
// service in process — internal/server's root handler, real JSON and
// NDJSON bodies, no sockets — over one generated media corpus, checks
// every answer, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics of a traced replay) as one JSON line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash dedupbench/run.sh --workload online --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(r *run) error{
	"batch-qgram-sql": func(r *run) error {
		rel, err := qgramRelation(r.c.records)
		if err != nil {
			return err
		}
		want, err := memPartition(rel)
		if err != nil {
			return err
		}
		return r.runBatch(specQGramSQL, func(g [][]int) error { return samePartition(g, want) })
	},
	"batch-pruned": func(r *run) error {
		want, err := referenceDigest(r.seed, r.c.records)
		if err != nil {
			return err
		}
		return r.runBatch(specPruned, func(g [][]int) error { return checkDigest(g, want) })
	},
	"online": (*run).runOnline,
	"churn":  (*run).runChurn,
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "dedupbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed (>= 0)")
	seconds := flag.Int("seconds", 15, "length of the main timed window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
	digests := flag.Int("write-digests", 0, "recompute the reference digests of seeds [0, n) and exit")
	flag.Parse()

	if *digests > 0 {
		return writeDigests(*digests)
	}
	fn, ok := workloads[*workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (one of %v)", *workload, names())
	case *seed < 0:
		return fmt.Errorf("seed %d must be >= 0", *seed)
	case *seconds < 1:
		return fmt.Errorf("seconds %d must be >= 1", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("trace %d must be 0 or 1", *trace)
	}
	if _, err := os.Stat(filepath.Join("dedupbench", "go.mod")); err != nil {
		return fmt.Errorf("run from the repository root: %v", err)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	walRoot, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walRoot)

	c := makeCorpus(*seed)
	window := time.Duration(*seconds) * time.Second
	base := newRun(*seed, c, walRoot, untracedShape(window))
	if err := fn(base); err != nil {
		return fmt.Errorf("%s: %v", *workload, err)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	t := base.t
	var metrics []metric
	if *trace == 0 {
		metrics = endToEnd(base, rss)
	} else {
		traced := newRun(*seed, c, walRoot, tracedShape())
		tr := newTracer(walRoot, *seed, c)
		traced.tr = tr
		err = fn(traced)
		tr.close()
		if err != nil {
			return fmt.Errorf("%s traced: %v", *workload, err)
		}
		t.attempted += traced.t.attempted
		t.failed += traced.t.failed
		t.errs = append(t.errs, traced.t.errs...)
		metrics = tr.perLayer(*workload, base, traced)
	}
	return report(os.Stdout, metrics, t)
}

// shape sizes one pass of a workload.
type shape struct {
	window      time.Duration // main timed window
	setups      int           // least set-ups per pass (setup_s is their median)
	setupFor    time.Duration // least time spent setting up
	minJobs     int           // batch jobs per pass, however long the window
	burst       int           // queries after each batch job
	refreshJobs int           // re-solves after the online query window
	minCycles   int           // churn write cycles per pass
}

func untracedShape(window time.Duration) shape {
	return shape{window: window, setups: 3, setupFor: time.Second, minJobs: 3, burst: 800, refreshJobs: 5, minCycles: 20}
}

// tracedShape is the traced replay's pass: one of each job, short query
// phases, since every op is replayed layer by layer after it completes.
func tracedShape() shape {
	return shape{window: 2 * time.Second, setups: 1, minJobs: 1, burst: 600, refreshJobs: 1, minCycles: 20}
}

func newRun(seed int64, c corpus, walRoot string, sh shape) *run {
	return &run{seed: seed, c: c, walRoot: walRoot, shape: sh, samples: map[string][]float64{}}
}

// metric is one named, unit-carrying value of the result line.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // how it was read (percentile, sample count)
	info  bool   // printed in the table only, not in the result line
}

// endToEnd derives the end-to-end metrics from an untraced pass.
func endToEnd(r *run, rssMiB float64) []metric {
	med := func(name, unit, sample string, scale float64) metric {
		s := r.samples[sample]
		return metric{name: name, unit: unit, value: median(s) * scale, note: fmt.Sprintf("median of %d", len(s))}
	}
	pc := func(name, sample string, p float64) metric {
		v := percentile(r.samples[sample], p)
		return metric{name: name, unit: "ms", value: v.Value, note: fmt.Sprintf("p%.1f of %d", v.At, v.N)}
	}
	qps := float64(r.queries) / r.queryWall.Seconds()
	return []metric{
		med("setup_s", "s", "setup", 1),
		{name: "peak_rss_mb", unit: "MiB", value: rssMiB, note: "VmHWM"},
		med("job_s", "s", "job", 1),
		{name: "query_per_s", unit: "1/s", value: qps, note: fmt.Sprintf("%d queries, 1 client", r.queries)},
		pc("hit_p50_ms", kindHit, 50), info(pc("hit_p90_ms", kindHit, 90)),
		pc("near_p50_ms", kindNear, 50), pc("near_p90_ms", kindNear, 90),
		pc("new_p50_ms", kindNew, 50), pc("new_p90_ms", kindNew, 90),
		pc("write_p50_ms", "write", 50), info(pc("write_p90_ms", "write", 90)),
		pc("fresh_p50_ms", "fresh", 50), pc("fresh_p90_ms", "fresh", 90),
	}
}

// info marks a metric as printed but not bounded: the tails of the
// hit and write ops, which take tens of microseconds in process, vary
// between runs by more than any bound a comparison can hold (24-67% on a
// shared 2-vCPU box), since a single preemption or GC assist moves them.
func info(m metric) metric {
	m.info = true
	return m
}

// report prints a readable table, then the result line last.
func report(w io.Writer, metrics []metric, t tally) error {
	for _, e := range t.errs {
		fmt.Fprintln(w, "FAILED:", e)
	}
	out := map[string]any{}
	for _, m := range metrics {
		fmt.Fprintf(w, "%-28s %14.6g %-7s %s\n", m.name, m.value, m.unit, m.note)
		if m.info {
			continue
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.fail("%s: no value", m.name)
			m.value = 0
		}
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   t.failed == 0,
		"attempted": t.attempted,
		"failed":    t.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// names lists the workloads, sorted.
func names() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
