package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"
)

// Answer sampling: every sampleEvery-th query answer, up to maxSamples
// per pass, is re-checked after its timed phase.
const (
	sampleEvery = 8
	maxSamples  = 400
)

// Job specs of the four workloads.
var (
	specQGramSQL = jobSpec{Index: "qgram", UseSQL: true, K: []int{problemK}, C: []float64{problemC}}
	specPruned   = jobSpec{Index: "pruned", K: []int{problemK}, C: []float64{problemC}}
	specQGram    = jobSpec{Index: "qgram", K: []int{problemK}, C: []float64{problemC}}
	specSession  = jobSpec{Incremental: true, K: []int{problemK}, C: []float64{problemC}}
)

// run is one pass of a workload: its inputs and shape, the samples it
// measured and the outcome tally. Every timed phase — a window, and
// within it each group of writes, each query burst — starts after a
// garbage collection and runs alone: one closed-loop client goroutine,
// one job worker, serial jobs.
type run struct {
	shape
	seed    int64
	walRoot string
	c       corpus
	t       tally

	samples       map[string][]float64 // setup, job (s); write, fresh, hit, near, new (ms)
	queries       int
	queryWall     time.Duration
	gcCycles      uint32
	gcPauseNs     uint64
	forcedPauseNs uint64 // pauses of the collections r.gc forced
	checks        []answerCheck
	queryCount    int // queries sent, for answer sampling

	tr *tracer // nil on untraced runs
}

func (r *run) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// timed runs fn as one timed phase: after a GC, with the runtime's own
// GC work during it recorded (the collections r.gc forces excluded).
func (r *run) timed(fn func()) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	forced := r.forcedPauseNs
	fn()
	runtime.ReadMemStats(&m1)
	r.gcCycles += (m1.NumGC - m1.NumForcedGC) - (m0.NumGC - m0.NumForcedGC)
	r.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs - (r.forcedPauseNs - forced)
}

// gc collects garbage between the ops of a timed phase, so each group
// of ops starts from a collected heap, and keeps the pause it caused out
// of the go.gc_* figures.
func (r *run) gc() {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.forcedPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
}

// setUp builds fresh servers, each with its WAL under the run's
// directory (fsync on), the dataset ingested as NDJSON and, when initial
// is set, the initial solve, and keeps the last one. Each set-up is one
// setup_s sample; it repeats at least r.setups times and until
// r.setupFor has passed, so a cheap set-up still yields a steady median.
func (r *run) setUp(records [][]string, initial *jobSpec) (*instance, string, error) {
	first := time.Now()
	for i := 1; ; i++ {
		runtime.GC()
		t0 := time.Now()
		in, err := startInstance(r.walRoot, &r.t)
		if err != nil {
			return nil, "", err
		}
		err = in.createDataset(records)
		var job string
		if err == nil && initial != nil {
			job, err = in.runJob(*initial)
		}
		if err != nil {
			in.close()
			return nil, "", err
		}
		r.add("setup", time.Since(t0).Seconds())
		if i >= r.setups && (time.Since(first) >= r.setupFor || i >= maxSetups) {
			return in, job, nil
		}
		in.close()
	}
}

// maxSetups caps the set-ups of one pass.
const maxSetups = 200

// refreshWrites is how many writes precede each re-solve.
const refreshWrites = 30

// refresh writes refreshWrites records back with their own values
// (mutations that leave the corpus and its reference partition fixed)
// and re-solves: write is each write's ack, job the
// job's submit-to-done, fresh the last write's send to the new snapshot
// being queryable.
func (r *run) refresh(in *instance, records [][]string, spec jobSpec, cycle int) (string, error) {
	r.gc()
	var i int
	var t0 time.Time
	var write time.Duration
	for w := 0; w < refreshWrites; w++ {
		i = (cycle*refreshWrites + w) % len(records)
		body, _ := json.Marshal(records[i])
		path := in.dsPath(fmt.Sprintf("/records/%d", in.rids[i]))
		t0 = time.Now()
		in.do("PUT", path, body)
		write = time.Since(t0)
		r.add("write", ms(write))
	}
	t1 := time.Now()
	id, err := in.runJob(spec)
	job, fresh := time.Since(t1), time.Since(t0)
	r.add("job", job.Seconds())
	r.add("fresh", ms(fresh))
	if r.tr != nil && err == nil {
		r.tr.replayRefresh(in, records, spec, i, id, write, job, fresh)
	}
	return id, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sendQueries sends queries in a closed loop, recording latency per kind
// and keeping a sample of answers for the output checks.
func (r *run) sendQueries(in *instance, qs []query, records [][]string, rids []int64, groups [][]int) {
	t0 := time.Now()
	for _, q := range qs {
		lat, ans := in.query(q)
		r.add(q.kind, ms(lat))
		if r.queryCount%sampleEvery == 0 && len(r.checks) < maxSamples {
			r.checks = append(r.checks, answerCheck{q: q, answer: ans, records: records, rids: rids, groups: groups})
		}
		r.queryCount++
		if r.tr != nil {
			r.tr.replayQuery(q, lat)
		}
	}
	r.queryWall += time.Since(t0)
	r.queries += len(qs)
}

// checkAnswers re-checks the sampled answers, outside any timed phase.
func (r *run) checkAnswers() {
	for _, a := range r.checks {
		r.t.check("query answer", checkAnswer(a))
	}
	r.checks = nil
}

// groupsOf reads a finished job's partition.
func groupsOf(in *instance, job string) (jobResult, [][]int, error) {
	res, err := in.result(job)
	if err != nil {
		return res, nil, err
	}
	return res, res.Results[0].Groups, nil
}

// runBatch is the batch workloads: over the window, cycles of writes
// and a re-solve with one job spec, each result checked, each followed
// by a burst of queries against the snapshot that job published. The
// bursts spread the query samples over the whole window.
func (r *run) runBatch(spec jobSpec, check func([][]int) error) error {
	records := r.c.records
	in, _, err := r.setUp(records, nil)
	if err != nil {
		return err
	}
	defer in.close()
	stream := queryStream(r.seed, r.c)
	next := 0
	completed := 0
	r.timed(func() {
		start := time.Now()
		for i := 0; i < r.minJobs || time.Since(start) < r.window; i++ {
			id, err := r.refresh(in, records, spec, i)
			if err != nil {
				continue
			}
			res, groups, err := groupsOf(in, id)
			if err == nil {
				err = check(groups)
			}
			r.t.check("job partition", err)
			if err != nil {
				continue
			}
			completed++
			if r.tr != nil {
				r.tr.useSnapshot(records, in.rids, res)
			}
			r.gc()
			qs := make([]query, r.burst)
			for j := range qs {
				qs[j] = stream[next%len(stream)]
				next++
			}
			r.sendQueries(in, qs, records, in.rids, groups)
		}
	})
	if completed == 0 {
		return fmt.Errorf("no job completed")
	}
	r.checkAnswers()
	return nil
}

// runOnline is the online workload: a read-only closed-loop query
// stream for the whole window against a qgram job's snapshot, then a
// few write + re-solve cycles.
func (r *run) runOnline() error {
	records := r.c.records
	in, job, err := r.setUp(records, &specQGram)
	if err != nil {
		return err
	}
	defer in.close()
	res, groups, err := groupsOf(in, job)
	if err != nil {
		return err
	}
	if r.tr != nil {
		r.tr.useSnapshot(records, in.rids, res)
	}
	stream := queryStream(r.seed, r.c)
	r.timed(func() {
		start := time.Now()
		for i := 0; time.Since(start) < r.window; i = (i + 256) % len(stream) {
			r.sendQueries(in, stream[i:i+256], records, in.rids, groups)
		}
	})
	r.checkAnswers()
	r.timed(func() {
		for i := 0; i < r.refreshJobs; i++ {
			r.refresh(in, records, specQGram, i)
		}
	})
	return nil
}

// runChurn is the churn workload: an incremental session over the churn
// sample; a closed loop writes (insert, update, delete in turn), waits
// until the repair the write triggered is done, then sends a burst of
// queries against the repaired snapshot.
func (r *run) runChurn() error {
	in, _, err := r.setUp(r.c.churn, &specSession)
	if err != nil {
		return err
	}
	defer in.close()
	plan := newChurnPlan(r.seed, r.c)
	if !slices.Equal(plan.m.rids, in.rids) {
		return fmt.Errorf("server minted rids %v..., mirror expects %v...", head(in.rids), head(plan.m.rids))
	}
	if r.tr != nil {
		if err := r.tr.startSession(plan.m); err != nil {
			return err
		}
	}
	var last string
	r.timed(func() {
		start := time.Now()
		for i := 0; i < r.minCycles || time.Since(start) < r.window; i++ {
			op := plan.write()
			r.gc()
			t0 := time.Now()
			code, body := in.do(op.method, in.dsPath(op.path), op.body)
			write := time.Since(t0)
			var resp struct {
				RepairJob string  `json:"repair_job"`
				RecordIDs []int64 `json:"record_ids"`
			}
			if code != 200 || json.Unmarshal(body, &resp) != nil || resp.RepairJob == "" {
				r.t.fail("%s: no repair job (%d)", op.kind, code)
				continue
			}
			if op.kind == "insert" && (len(resp.RecordIDs) != 1 || resp.RecordIDs[0] != plan.m.nextRID) {
				r.t.fail("insert: rids %v, mirror expects %d", resp.RecordIDs, plan.m.nextRID)
			}
			t1 := time.Now()
			err := in.waitJob(resp.RepairJob)
			job, fresh := time.Since(t1), time.Since(t0)
			if err != nil {
				continue
			}
			last = resp.RepairJob
			r.add("write", ms(write))
			r.add("job", job.Seconds())
			r.add("fresh", ms(fresh))
			if r.tr != nil {
				r.tr.replayChurnWrite(op, write, job, fresh)
			}
			snap := plan.m.snapshot()
			r.sendQueries(in, plan.queries(), snap, append([]int64(nil), plan.m.rids...), nil)
		}
	})
	if last == "" {
		return fmt.Errorf("no repair completed")
	}
	r.checkAnswers()
	_, groups, err := groupsOf(in, last)
	if err != nil {
		return err
	}
	final := plan.m.snapshot()
	r.t.check("final groups", checkFinal(final, groups))
	// A final sample against the last snapshot, with the group check.
	for i, q := range plan.queries() {
		_, ans := in.query(q)
		if i%4 == 0 {
			r.checks = append(r.checks, answerCheck{q: q, answer: ans, records: final, rids: plan.m.rids, groups: groups})
		}
	}
	r.checkAnswers()
	return nil
}

func head(v []int64) []int64 { return v[:min(len(v), 3)] }
