package main

import (
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"fuzzydup"
	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/durable"
	"fuzzydup/internal/incremental"
	"fuzzydup/internal/nnindex"
	"fuzzydup/internal/obs"
	"fuzzydup/internal/querysnap"
	"fuzzydup/internal/strutil"
)

// tracer is the traced replay. After each server call of a traced pass
// completes, it replays the same inputs through the layers' public
// functions, one span per layer call, on the benchmark's own copies of
// the state: its own index, relation, snapshot, incremental engine and
// WAL. Spans stay in memory until the run ends. The server's share of
// an op (the server.* residual) is the op's end-to-end time minus the
// replayed spans on its blocking path.
type tracer struct {
	col *obs.Collector
	tr  *obs.Tracer

	walRoot string
	db      *durable.DB // the replay WAL of a durable workload, fsync on

	snap *querysnap.Snapshot // the snapshot queries are replayed against
	qs   []query             // traced queries, for the allocation count

	// Churn: the replayed incremental session and its rid mapping.
	m     *mirror
	eng   *incremental.Engine
	idOf  map[int64]int
	ridOf map[int]int64
}

// replayDataset is the dataset ID of the replay WAL.
const replayDataset = "ds-replay"

func newTracer(walRoot string, seed int64, c corpus) *tracer {
	col := &obs.Collector{}
	t := &tracer{col: col, tr: &obs.Tracer{Sink: col}, walRoot: walRoot}
	t.distanceKernels(seed, keysOf(c.records))
	return t
}

func (t *tracer) close() {
	if t.db != nil {
		t.db.Close()
	}
}

// openWAL opens the replay WAL, fsync on, holding the dataset's records.
func (t *tracer) openWAL(records [][]string, rids []int64) error {
	dir, err := os.MkdirTemp(t.walRoot, "replay-")
	if err != nil {
		return err
	}
	if t.db, _, err = durable.Open(durable.Options{Dir: dir, Fsync: true, SnapshotEvery: -1}); err != nil {
		return err
	}
	recs := make([]fuzzydup.Record, len(records))
	for i, r := range records {
		recs[i] = r
	}
	return t.db.AppendSync(&durable.DatasetCreate{
		ID: replayDataset, Records: recs, RIDs: rids, NextRID: rids[len(rids)-1], Counter: 1,
	})
}

// distanceKernels times the metric kernels on record pairs of the corpus:
// the full Levenshtein metric the q-gram index and incremental engine
// verify with, and the banded kernel the pruned index and snapshots use.
func (t *tracer) distanceKernels(seed int64, keys []string) {
	const pairs = 4000
	rng := rand.New(rand.NewSource(seed))
	a, b := make([]string, pairs), make([]string, pairs)
	ra, rb := make([][]rune, pairs), make([][]rune, pairs)
	for i := range a {
		a[i], b[i] = keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		ra[i], rb[i] = []rune(strutil.Normalize(a[i])), []rune(strutil.Normalize(b[i]))
	}
	sink := 0.0
	sp := t.tr.Start("distance.ed")
	for i := range a {
		sink += distance.Edit{}.Distance(a[i], b[i])
	}
	sp.Add("calls", pairs)
	sp.End()
	var sc distance.BoundedScratch
	sp = t.tr.Start("distance.bounded")
	for i := range ra {
		sink += float64(distance.BoundedLevenshteinRunes(ra[i], rb[i], 8, &sc))
	}
	sp.Add("calls", pairs)
	sp.End()
	runtime.KeepAlive(sink)
}

// useSnapshot builds the replay's snapshot of a finished job (untimed).
func (t *tracer) useSnapshot(records [][]string, rids []int64, res jobResult) {
	t.snap = buildSnapshot(records, rids, res.Results[0].Groups, res.Results[0].Representatives)
}

func buildSnapshot(records [][]string, rids []int64, groups [][]int, reps []int) *querysnap.Snapshot {
	s, err := querysnap.Build(querysnap.Config{
		Dataset: replayDataset, Records: records, RIDs: rids, Groups: groups, Reps: reps,
		Params: querysnap.Params{Mode: "size", K: problemK, C: problemC, Metric: "ed"},
	})
	if err != nil {
		panic(err) // the config is built here from a valid job result
	}
	return s
}

// replayQuery replays one point query through querysnap.Lookup.
func (t *tracer) replayQuery(q query, e2e time.Duration) {
	root := t.tr.Start("query." + q.kind)
	root.Add("e2e_ns", e2e.Nanoseconds())
	sp := root.Child("querysnap.lookup")
	res := t.snap.Lookup(q.record, queryK)
	sp.Add("verified", int64(res.Stats.Verified))
	sp.Add("pruned", int64(res.Stats.Pruned))
	sp.Add("scanned", int64(res.Stats.Scanned))
	sp.End()
	root.End()
	t.qs = append(t.qs, q)
}

// replayRefresh replays a batch or online refresh: the last write into
// the replay WAL, then the re-solve's layers.
func (t *tracer) replayRefresh(in *instance, records [][]string, spec jobSpec, i int, job string, write, jobT, fresh time.Duration) {
	if t.db == nil {
		if err := t.openWAL(records, in.rids); err != nil {
			in.t.fail("replay WAL: %v", err)
			return
		}
	}
	res, err := in.result(job)
	if err != nil {
		return
	}
	root := t.tr.Start("refresh")
	root.Add("write_ns", write.Nanoseconds())
	root.Add("job_ns", jobT.Nanoseconds())
	root.Add("fresh_ns", fresh.Nanoseconds())
	t.replayWrite(root, &durable.RecordReplace{Dataset: replayDataset, RID: in.rids[i], Record: records[i]}, records[0], in.rids[0])
	groups := t.replayJob(root, records, in.rids, spec, res)
	root.End()
	in.t.check("replayed partition", samePartition(groups, res.Results[0].Groups))
}

// replayWrite logs one write into the replay WAL (append, then commit),
// and an idempotent same-value replace of (rec, rid) with AppendSync.
func (t *tracer) replayWrite(root *obs.Span, op durable.Op, rec []string, rid int64) {
	sp := root.Child("durable.append")
	seq, err := t.db.Append(op)
	sp.End()
	sp = root.Child("durable.commit")
	if err == nil {
		err = t.db.Commit(seq)
	}
	sp.End()
	sp = root.Child("durable.append_sync")
	if err == nil {
		err = t.db.AppendSync(&durable.RecordReplace{Dataset: replayDataset, RID: rid, Record: rec})
	}
	sp.End()
	if err != nil {
		root.SetError(err)
	}
}

// replayJob replays a batch job's layers over the corpus and returns
// the partition it computed.
func (t *tracer) replayJob(root *obs.Span, records [][]string, rids []int64, spec jobSpec, res jobResult) [][]int {
	keys := make([]string, len(records))
	sp := root.Child("strutil.normalize")
	norm := 0
	for i, r := range records {
		keys[i] = strutil.JoinFields(r)
		norm += len(strutil.Normalize(keys[i]))
	}
	sp.Add("runes", int64(norm))
	sp.End()

	counter := distance.NewCounting(distance.Edit{})
	var idx nnindex.Index
	var qg *nnindex.QGram
	var pr *nnindex.Pruned
	var err error
	sp = root.Child("nnindex.build")
	switch spec.Index {
	case "qgram":
		qg, err = nnindex.NewQGram(keys, counter, nnindex.QGramConfig{})
		idx = qg
	default: // "pruned"
		pr, err = nnindex.NewPruned(keys, counter, nnindex.PrunedConfig{})
		idx = pr
	}
	sp.End()
	if err != nil {
		root.SetError(err)
		return nil
	}
	verified := func() int64 {
		n := counter.Calls()
		if pr != nil {
			_, cand, _ := pr.PrunedCounters()
			n += cand // the pruned index verifies with bounded kernels, not the metric
		}
		return n
	}
	if qg != nil {
		qg.Pool().ResetStats()
		qg.Disk().ResetStats()
	}

	calls0 := verified()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = root.Child("core.phase1")
	rel, err := core.ComputeNN(idx, problem.Cut, core.DefaultP, core.Phase1Options{})
	sp.End()
	runtime.ReadMemStats(&m1)
	root.Add("phase1_allocs", int64(m1.Mallocs-m0.Mallocs))
	if err != nil {
		root.SetError(err)
		return nil
	}
	if qg != nil {
		hits, misses := qg.Pool().Stats()
		reads, _ := qg.Disk().Stats()
		root.Add("pool_hits", hits)
		root.Add("pool_misses", misses)
		root.Add("page_reads", reads)
	}

	var groups [][]int
	sp = root.Child("core.phase2")
	if spec.UseSQL {
		runner := core.NewSQLRunner()
		c := sp.Child("core.sql_load")
		err = runner.LoadNNRelation(rel)
		c.End()
		runtime.ReadMemStats(&m0)
		c = sp.Child("core.sql_cspairs")
		if err == nil {
			err = runner.BuildCSPairs()
		}
		c.End()
		runtime.ReadMemStats(&m1)
		root.Add("sql_alloc_bytes", int64(m1.TotalAlloc-m0.TotalAlloc))
		c = sp.Child("core.sql_partition")
		if err == nil {
			groups, err = runner.Partition(problem)
		}
		c.End()
	} else {
		groups, err = memPartition(rel)
	}
	sp.End()
	root.Add("distance_calls", verified()-calls0)
	if err != nil {
		root.SetError(err)
		return nil
	}

	// Per-record probes, as phase 1 issues them, timed one by one.
	lk := root.Child("nnindex.lookups")
	v0 := verified()
	for id := range keys {
		s := lk.Child("nnindex.topk")
		nb := idx.TopK(id, problemK)
		s.End()
		if len(nb) == 0 {
			continue
		}
		r := core.DefaultP * nb[0].Dist
		if nb[0].Dist == 0 {
			r = core.ZeroDistanceRadius
		}
		s = lk.Child("nnindex.growth")
		idx.GrowthCount(id, r)
		s.End()
	}
	lk.Add("verified", verified()-v0)
	lk.Add("pairs", int64(2*len(keys)*(len(keys)-1)))
	lk.End()

	sp = root.Child("querysnap.build")
	t.snap = buildSnapshot(records, rids, res.Results[0].Groups, res.Results[0].Representatives)
	sp.End()
	return groups
}

// startSession mirrors the churn session: an incremental engine over the
// sample and the sample in the replay WAL (both untimed).
func (t *tracer) startSession(m *mirror) error {
	t.m = m
	eng, err := incremental.New(keysOf(m.records), incremental.Config{Metric: distance.Edit{}, Cut: problem.Cut, C: problemC})
	if err != nil {
		return err
	}
	t.eng = eng
	t.idOf, t.ridOf = map[int64]int{}, map[int]int64{}
	for i, rid := range m.rids {
		t.idOf[rid], t.ridOf[i] = i, rid
	}
	t.rebuildSnapshot()
	return t.openWAL(m.records, m.rids)
}

// rebuildSnapshot builds a snapshot of the engine's groups over the
// mirror's records, as the server republishes after a repair.
func (t *tracer) rebuildSnapshot() {
	pos := make(map[int64]int, len(t.m.rids))
	for i, rid := range t.m.rids {
		pos[rid] = i
	}
	var groups [][]int
	var reps []int
	for _, g := range t.eng.Groups() {
		members := make([]int, len(g))
		for i, id := range g {
			members[i] = pos[t.ridOf[id]]
		}
		groups = append(groups, members)
		reps = append(reps, members[0])
	}
	t.snap = buildSnapshot(t.m.snapshot(), t.m.rids, groups, reps)
}

// replayChurnWrite replays one churn write: its WAL entry, the
// incremental repair it triggers, and the snapshot rebuild.
func (t *tracer) replayChurnWrite(op churnOp, write, job, fresh time.Duration) {
	root := t.tr.Start("churn")
	root.Add("write_ns", write.Nanoseconds())
	root.Add("job_ns", job.Nanoseconds())
	root.Add("fresh_ns", fresh.Nanoseconds())
	var dop durable.Op
	switch op.kind {
	case "insert":
		dop = &durable.RecordsAppend{Dataset: replayDataset, Records: []fuzzydup.Record{op.record}, RIDs: []int64{op.rid}}
	case "update":
		dop = &durable.RecordReplace{Dataset: replayDataset, RID: op.rid, Record: op.record}
	default:
		dop = &durable.RecordDelete{Dataset: replayDataset, RID: op.rid}
	}
	t.replayWrite(root, dop, t.m.records[0], t.m.rids[0])

	sp := root.Child("incremental.repair")
	var err error
	switch op.kind {
	case "insert":
		id := t.eng.Insert(strutil.JoinFields(op.record))
		t.idOf[op.rid], t.ridOf[id] = id, op.rid
	case "update":
		err = t.eng.Update(t.idOf[op.rid], strutil.JoinFields(op.record))
	default:
		err = t.eng.Delete(t.idOf[op.rid])
		delete(t.ridOf, t.idOf[op.rid])
		delete(t.idOf, op.rid)
	}
	st := t.eng.LastRepair()
	sp.Add("dirty", int64(st.DirtyLookups))
	sp.Add("live", int64(st.Live))
	sp.Add("distance_calls", st.DistanceCalls)
	sp.End()
	if err != nil {
		root.SetError(err)
	}
	sp = root.Child("querysnap.build")
	t.rebuildSnapshot()
	sp.End()
	root.End()
}

// spanTree is one replayed op: its root span and its descendants.
type spanTree struct {
	root  obs.SpanData
	spans []obs.SpanData
}

// sum totals the durations of the descendants with the given names.
func (s spanTree) sum(names ...string) time.Duration {
	var d time.Duration
	for _, sp := range s.spans {
		for _, n := range names {
			if sp.Name == n {
				d += sp.Duration
			}
		}
	}
	return d
}

func (s spanTree) counter(span, key string) int64 {
	var n int64
	for _, sp := range s.spans {
		if sp.Name == span {
			n += sp.Counters[key]
		}
	}
	return n
}

// trees groups the collected spans into one tree per root span.
func (t *tracer) trees() map[string][]spanTree {
	byTrace := map[string]*spanTree{}
	var order []string
	for _, sp := range t.col.Spans() {
		st, ok := byTrace[sp.TraceID]
		if !ok {
			st = &spanTree{}
			byTrace[sp.TraceID] = st
			order = append(order, sp.TraceID)
		}
		if !strings.Contains(sp.Path, "/") {
			st.root = sp
		} else {
			st.spans = append(st.spans, sp)
		}
	}
	out := map[string][]spanTree{}
	for _, id := range order {
		st := byTrace[id]
		out[st.root.Name] = append(out[st.root.Name], *st)
	}
	return out
}
