package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"fuzzydup/internal/dataset"
	"fuzzydup/internal/obs"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n       int
		p       float64
		want    float64
		wantPct float64
	}{
		{n: 1000, p: 99, want: 990, wantPct: 99},         // 10 samples beyond p99
		{n: 100, p: 99, want: 90, wantPct: 90},           // lowered to p90
		{n: 100, p: 50, want: 50, wantPct: 50},           // the median is always allowed
		{n: 15, p: 90, want: 8, wantPct: 100 * 8.0 / 15}, // too few: the median
		{n: 1, p: 99, want: 1, wantPct: 100},
	} {
		got := percentile(seq(tc.n), tc.p)
		if got.Value != tc.want || math.Abs(got.At-tc.wantPct) > 1e-9 || got.N != tc.n {
			t.Errorf("percentile(1..%d, %g) = %+v, want value %g at p%.2f", tc.n, tc.p, got, tc.want, tc.wantPct)
		}
	}
	// Whatever the count, a percentile above the median keeps at least
	// minBeyond samples strictly above it.
	for n := 21; n < 400; n += 7 {
		s := seq(n)
		for _, p := range []float64{90, 99, 99.9} {
			v := percentile(s, p).Value
			beyond := 0
			for _, x := range s {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Fatalf("n=%d p%g: %d samples beyond %g", n, p, beyond, v)
			}
		}
	}
	if v := percentile(nil, 50).Value; !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %g, want NaN", v)
	}
}

// streamBytes serializes every request a seed's workloads send: the
// ingest bodies, the query stream and a churn sequence.
func streamBytes(seed int64) []byte {
	c := makeCorpus(seed)
	var b bytes.Buffer
	b.Write(ndjson(c.records))
	b.Write(ndjson(c.churn))
	for _, q := range queryStream(seed, c) {
		b.WriteString(q.kind)
		b.Write(q.body)
	}
	p := newChurnPlan(seed, c)
	for i := 0; i < 60; i++ {
		op := p.write()
		b.WriteString(op.method + " " + op.path)
		b.Write(op.body)
		for _, q := range p.queries() {
			b.Write(q.body)
		}
	}
	return b.Bytes()
}

func TestRequestStreamsDeterministic(t *testing.T) {
	a, b := streamBytes(7), streamBytes(7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 produced two different request streams")
	}
	if bytes.Equal(a, streamBytes(8)) {
		t.Fatal("seeds 7 and 8 produced the same request stream")
	}
	c := makeCorpus(7)
	if len(c.records) < corpusSize*9/10 || len(c.churn) != churnSize || len(c.fresh) == 0 {
		t.Fatalf("corpus sizes %d/%d/%d", len(c.records), len(c.churn), len(c.fresh))
	}
	kinds := map[string]int{}
	for _, q := range queryStream(7, c) {
		kinds[q.kind]++
	}
	for kind, share := range map[string]float64{kindHit: 0.6, kindNear: 0.3, kindNew: 0.1} {
		if got := float64(kinds[kind]) / streamLen; math.Abs(got-share) > 0.03 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, share)
		}
	}
}

func TestPartitionChecksRejectCorruption(t *testing.T) {
	records := dataset.Media(dataset.Config{Size: 80, Seed: 3}).Records
	groups, err := exactPartition(records)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(groups, digest(groups)); err != nil {
		t.Fatalf("digest check rejects the exact partition: %v", err)
	}
	if err := checkFinal(records, groups); err != nil {
		t.Fatalf("final check rejects core.Solve's partition: %v", err)
	}
	rel, err := qgramRelation(records)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := memPartition(rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePartition(mem, mem); err != nil {
		t.Fatal(err)
	}
	bad := corruptPartition(t, groups)
	if checkDigest(bad, digest(groups)) == nil {
		t.Error("digest check accepts a corrupted partition")
	}
	if checkFinal(records, bad) == nil {
		t.Error("final check accepts a corrupted partition")
	}
	if samePartition(corruptPartition(t, mem), mem) == nil {
		t.Error("SQL phase-2 check accepts a corrupted partition")
	}
}

// corruptPartition moves one member of a duplicate group to a group of
// its own.
func corruptPartition(t *testing.T, groups [][]int) [][]int {
	out := canonical(groups)
	for i, g := range out {
		if len(g) >= 2 {
			out[i] = g[1:]
			return append(out, g[:1])
		}
	}
	t.Fatal("no duplicate group to corrupt")
	return nil
}

func TestAnswerCheckRejectsCorruption(t *testing.T) {
	c := makeCorpus(5)
	records := c.records[:120]
	tl := &tally{}
	in, err := startInstance(t.TempDir(), tl)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	if err := in.createDataset(records); err != nil {
		t.Fatal(err)
	}
	job, err := in.runJob(specPruned)
	if err != nil {
		t.Fatal(err)
	}
	_, groups, err := groupsOf(in, job)
	if err != nil {
		t.Fatal(err)
	}
	c.records = records
	seen := map[string]bool{}
	for _, q := range queryStream(5, c)[:200] {
		_, ans := in.query(q)
		a := answerCheck{q: q, answer: ans, records: records, rids: in.rids, groups: groups}
		if err := checkAnswer(a); err != nil {
			t.Fatalf("%s query: correct answer rejected: %v", q.kind, err)
		}
		if seen[q.kind] {
			continue
		}
		seen[q.kind] = true
		for name, corrupt := range corruptions(q.kind) {
			var m map[string]any
			if err := json.Unmarshal(ans, &m); err != nil {
				t.Fatal(err)
			}
			corrupt(m)
			a.answer, _ = json.Marshal(m)
			if checkAnswer(a) == nil {
				t.Errorf("%s query: answer with %s accepted", q.kind, name)
			}
		}
	}
	if len(seen) != len(queryKinds) {
		t.Fatalf("stream covered kinds %v", seen)
	}
	if tl.failed != 0 {
		t.Fatalf("server ops failed: %v", tl.errs)
	}
}

// corruptions edits a decoded query answer in ways the check must catch.
func corruptions(kind string) map[string]func(map[string]any) {
	first := func(m map[string]any, list string) map[string]any {
		return m[list].([]any)[0].(map[string]any)
	}
	if kind == kindHit {
		return map[string]func(map[string]any){
			"wrong record": func(m map[string]any) { first(m, "matches")["index"] = 1e6 },
			"wrong group": func(m map[string]any) {
				first(m, "matches")["group"].(map[string]any)["indexes"] = []int{-1}
			},
			"no match": func(m map[string]any) { m["matches"] = []any{} },
		}
	}
	return map[string]func(map[string]any){
		"wrong distance":  func(m map[string]any) { first(m, "candidates")["distance"] = 0.999 },
		"wrong candidate": func(m map[string]any) { first(m, "candidates")["index"] = 1e6 },
		"wrong group": func(m map[string]any) {
			first(m, "candidates")["group"].(map[string]any)["indexes"] = []int{-1}
		},
		"missing candidate": func(m map[string]any) {
			m["candidates"] = m["candidates"].([]any)[1:]
		},
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json's metric lists and
// the metrics the command prints the same.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, names()) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", wl, names())
	}
	r := newRun(1, corpus{}, "", untracedShape(0))
	pairs := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			if !m.info {
				out = append(out, m.name+" "+m.unit)
			}
		}
		return out
	}
	declared := func(list []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name+" "+m.Unit)
		}
		return out
	}
	if got, want := pairs(endToEnd(r, 1)), declared(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics printed %v, declared %v", got, want)
	}
	tr := &tracer{col: &obs.Collector{}}
	if got, want := pairs(tr.perLayer("online", r, r)), declared(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics printed %v, declared %v", got, want)
	}
}
