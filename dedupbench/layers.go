package main

import (
	"runtime"
	"time"
)

// Names of the replayed spans on each op's blocking path; an op's
// server.* residual is its end-to-end time minus these.
var (
	writeLayers = []string{"durable.append", "durable.commit"}
	jobLayers   = []string{"nnindex.build", "core.phase1", "core.phase2", "querysnap.build"}
	repairLayer = []string{"incremental.repair", "querysnap.build"}
)

// perLayer derives the per-layer metrics of a traced run. base is the
// untraced pass (it supplies the GC figures and the overhead baseline),
// traced the replayed pass. A layer the workload bypasses reads 0.
func (t *tracer) perLayer(workload string, base, traced *run) []metric {
	trees := t.trees()
	jobs := trees["refresh"]
	churn := trees["churn"]
	var queries []spanTree
	for _, k := range queryKinds {
		queries = append(queries, trees["query."+k]...)
	}
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name: name, unit: unit, value: v}) }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	span := func(ts []spanTree, conv func(time.Duration) float64, names ...string) float64 {
		return medianOf(ts, func(s spanTree) float64 { return conv(s.sum(names...)) })
	}
	rootCounter := func(ts []spanTree, key string) float64 {
		return medianOf(ts, func(s spanTree) float64 { return float64(s.root.Counters[key]) })
	}
	ratio := func(ts []spanTree, span, num, den string) float64 {
		return meanOf(ts, func(s spanTree) (float64, bool) {
			d := s.counter(span, den)
			return float64(s.counter(span, num)) / float64(d), d > 0
		})
	}

	add("strutil.normalize_ms", "ms", span(jobs, ms, "strutil.normalize"))
	add("nnindex.build_ms", "ms", span(jobs, ms, "nnindex.build"))
	add("nnindex.topk_ms", "ms", span(jobs, ms, "nnindex.topk"))
	add("nnindex.growth_ms", "ms", span(jobs, ms, "nnindex.growth"))
	add("nnindex.verified", "count", medianOf(jobs, func(s spanTree) float64 {
		return float64(s.counter("nnindex.lookups", "verified"))
	}))
	add("nnindex.pruned_frac", "ratio", meanOf(jobs, func(s spanTree) (float64, bool) {
		pairs := s.counter("nnindex.lookups", "pairs")
		return 1 - float64(s.counter("nnindex.lookups", "verified"))/float64(pairs), pairs > 0
	}))
	add("buffer.hit_ratio", "ratio", meanOf(jobs, func(s spanTree) (float64, bool) {
		h, m := s.root.Counters["pool_hits"], s.root.Counters["pool_misses"]
		return float64(h) / float64(h+m), h+m > 0
	}))
	add("storage.page_reads", "count", rootCounter(jobs, "page_reads"))

	perCall := func(name string) float64 {
		for _, s := range trees[name] {
			return float64(s.root.Duration.Nanoseconds()) / float64(s.root.Counters["calls"])
		}
		return 0
	}
	add("distance.ed_ns", "ns", perCall("distance.ed"))
	add("distance.bounded_ns", "ns", perCall("distance.bounded"))
	if workload == "churn" {
		add("distance.calls", "count", medianOf(churn, func(s spanTree) float64 {
			return float64(s.counter("incremental.repair", "distance_calls"))
		}))
	} else {
		add("distance.calls", "count", rootCounter(jobs, "distance_calls"))
	}

	add("core.phase1_ms", "ms", span(jobs, ms, "core.phase1"))
	add("core.phase1_allocs", "count", rootCounter(jobs, "phase1_allocs"))
	add("core.phase2_ms", "ms", span(jobs, ms, "core.phase2"))
	add("core.sql_load_ms", "ms", span(jobs, ms, "core.sql_load"))
	add("core.sql_cspairs_ms", "ms", span(jobs, ms, "core.sql_cspairs"))
	add("core.sql_partition_ms", "ms", span(jobs, ms, "core.sql_partition"))
	add("core.sql_heap_mb", "MiB", rootCounter(jobs, "sql_alloc_bytes")/(1<<20))

	add("querysnap.build_ms", "ms", span(append(append([]spanTree(nil), jobs...), churn...), ms, "querysnap.build"))
	for _, k := range queryKinds {
		add("querysnap."+k+"_us", "us", span(trees["query."+k], us, "querysnap.lookup"))
	}
	add("querysnap.near_verified", "count", meanOf(trees["query.near"], func(s spanTree) (float64, bool) {
		return float64(s.counter("querysnap.lookup", "verified")), true
	}))
	add("querysnap.new_verified", "count", meanOf(trees["query.new"], func(s spanTree) (float64, bool) {
		return float64(s.counter("querysnap.lookup", "verified")), true
	}))
	add("querysnap.new_pruned_frac", "ratio", ratio(trees["query.new"], "querysnap.lookup", "pruned", "scanned"))
	add("querysnap.lookup_allocs", "count", t.lookupAllocs())

	add("incremental.repair_ms", "ms", span(churn, ms, "incremental.repair"))
	add("incremental.dirty_frac", "ratio", ratio(churn, "incremental.repair", "dirty", "live"))
	add("incremental.distance_calls", "count", medianOf(churn, func(s spanTree) float64 {
		return float64(s.counter("incremental.repair", "distance_calls"))
	}))

	writes := append(append([]spanTree(nil), jobs...), churn...)
	add("durable.append_us", "us", span(writes, us, "durable.append"))
	add("durable.commit_us", "us", span(writes, us, "durable.commit"))
	add("durable.append_sync_us", "us", span(writes, us, "durable.append_sync"))

	// Residuals: end-to-end minus the replayed layers on the blocking path.
	refreshLayers := jobLayers
	if workload == "churn" {
		refreshLayers = repairLayer
	}
	residual := func(key string, conv func(time.Duration) float64, layers ...[]string) float64 {
		var names []string
		for _, l := range layers {
			names = append(names, l...)
		}
		return medianOf(writes, func(s spanTree) float64 {
			return conv(time.Duration(s.root.Counters[key]) - s.sum(names...))
		})
	}
	add("server.job_other_ms", "ms", residual("job_ns", ms, refreshLayers))
	add("server.query_other_us", "us", medianOf(queries, func(s spanTree) float64 {
		return us(time.Duration(s.root.Counters["e2e_ns"]) - s.sum("querysnap.lookup"))
	}))
	add("server.write_other_us", "us", residual("write_ns", us, writeLayers))
	add("server.fresh_other_ms", "ms", residual("fresh_ns", ms, writeLayers, refreshLayers))

	add("go.gc_cycles", "count", float64(base.gcCycles))
	add("go.gc_pause_ms", "ms", float64(base.gcPauseNs)/1e6)
	primary := map[string]string{"online": kindHit, "churn": "fresh"}[workload]
	if primary == "" {
		primary = "job"
	}
	b, tr := median(base.samples[primary]), median(traced.samples[primary])
	add("trace.overhead_pct", "%", 100*(tr-b)/b)
	return out
}

// lookupAllocs is the mean heap allocation count of one Lookup over the
// traced queries.
func (t *tracer) lookupAllocs() float64 {
	qs := t.qs[:min(len(t.qs), 500)]
	if len(qs) == 0 || t.snap == nil {
		return 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, q := range qs {
		t.snap.Lookup(q.record, queryK)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(qs))
}

// medianOf is the median of f over the trees (0 for none).
func medianOf(ts []spanTree, f func(spanTree) float64) float64 {
	if len(ts) == 0 {
		return 0
	}
	v := make([]float64, len(ts))
	for i, s := range ts {
		v[i] = f(s)
	}
	return median(v)
}

// meanOf is the mean of f over the trees where it is defined (0 for none).
func meanOf(ts []spanTree, f func(spanTree) (float64, bool)) float64 {
	var v []float64
	for _, s := range ts {
		if x, ok := f(s); ok {
			v = append(v, x)
		}
	}
	return mean(v)
}
