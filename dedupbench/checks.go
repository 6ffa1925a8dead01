package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"

	"fuzzydup"
	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
	"fuzzydup/internal/strutil"
)

// The problem every job solves: DE_S with K = 3, SN threshold c = 4.
const (
	problemK = 3
	problemC = 4.0
)

var problem = core.Problem{Cut: core.Cut{MaxSize: problemK}, Agg: core.AggMax, C: problemC}

// canonical orders a partition: members ascending, groups by smallest
// member, so two partitions compare with reflect.DeepEqual.
func canonical(groups [][]int) [][]int {
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		m := append([]int(nil), g...)
		sort.Ints(m)
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// digest is the SHA-256 of a partition's canonical JSON.
func digest(groups [][]int) string {
	b, _ := json.Marshal(canonical(groups))
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func samePartition(got, want [][]int) error {
	g, w := canonical(got), canonical(want)
	if reflect.DeepEqual(g, w) {
		return nil
	}
	return fmt.Errorf("partition differs: %d groups, want %d (digest %.12s, want %.12s)",
		len(g), len(w), digest(g), digest(w))
}

// digestsFile holds the reference digests of the exact partition of the
// batch corpus, by seed. The command recomputes and rewrites it with
// -write-digests; seeds missing from it are solved on demand.
const digestsFile = "dedupbench/digests.json"

//go:embed digests.json
var digestsJSON []byte

// exactPartition solves the corpus with the exact index — the partition
// every accelerated path must reproduce bit for bit.
func exactPartition(records [][]string) ([][]int, error) {
	recs := make([]fuzzydup.Record, len(records))
	for i, r := range records {
		recs[i] = r
	}
	d, err := fuzzydup.New(recs, fuzzydup.Options{Index: fuzzydup.IndexExact})
	if err != nil {
		return nil, err
	}
	return d.GroupsBySize(problemK, problemC)
}

// referenceDigest returns the exact partition's digest for a seed: from
// the committed table when present, else computed now.
func referenceDigest(seed int64, records [][]string) (string, error) {
	var table map[string]string
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		return "", fmt.Errorf("%s: %v", digestsFile, err)
	}
	if d, ok := table[strconv.FormatInt(seed, 10)]; ok {
		return d, nil
	}
	groups, err := exactPartition(records)
	if err != nil {
		return "", err
	}
	return digest(groups), nil
}

// writeDigests recomputes the table for seeds [0, n) and rewrites it.
func writeDigests(n int) error {
	table := make(map[string]string, n)
	for s := int64(0); s < int64(n); s++ {
		groups, err := exactPartition(makeCorpus(s).records)
		if err != nil {
			return err
		}
		table[strconv.FormatInt(s, 10)] = digest(groups)
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsFile, append(b, '\n'), 0o644)
}

// checkDigest is the batch-pruned check: the job's partition must be
// the exact index's.
func checkDigest(groups [][]int, want string) error {
	if got := digest(groups); got != want {
		return fmt.Errorf("partition digest %.12s, exact partition %.12s", got, want)
	}
	return nil
}

func keysOf(records [][]string) []string {
	keys := make([]string, len(records))
	for i, r := range records {
		keys[i] = strutil.JoinFields(r)
	}
	return keys
}

// qgramRelation computes the phase-1 relation a qgram job computes.
func qgramRelation(records [][]string) (*core.NNRelation, error) {
	idx, err := nnindex.NewQGram(keysOf(records), distance.Edit{}, nnindex.QGramConfig{})
	if err != nil {
		return nil, err
	}
	return core.ComputeNN(idx, problem.Cut, core.DefaultP, core.Phase1Options{})
}

// memPartition is the in-memory phase 2 over a relation: the reference
// the SQL phase 2 must equal.
func memPartition(rel *core.NNRelation) ([][]int, error) {
	var st core.PartitionStats
	return core.PartitionWithStats(rel, problem, &st)
}

// checkFinal is the churn end check: the session's final groups must
// equal core.Solve over the final corpus.
func checkFinal(records [][]string, groups [][]int) error {
	want, _, err := core.Solve(nnindex.NewExact(keysOf(records), distance.Edit{}), problem, core.Phase1Options{})
	if err != nil {
		return err
	}
	return samePartition(groups, want)
}

// answerCheck is one sampled query answer with the state it was served
// from: the snapshot's records and rids, and (when known) the solved
// partition, for the group check.
type answerCheck struct {
	q       query
	answer  []byte
	records [][]string
	rids    []int64
	groups  [][]int // nil: skip the group check
}

// checkAnswer re-derives a query's answer by a brute-force scan of the
// snapshot corpus. A stored record must come back as every record with
// its key, each with its group; otherwise the candidates must be the k
// nearest records by (distance, index) with their true distances.
func checkAnswer(a answerCheck) error {
	var ans queryAnswer
	if err := json.Unmarshal(a.answer, &ans); err != nil {
		return fmt.Errorf("decode answer: %v", err)
	}
	keys := keysOf(a.records)
	key := strutil.JoinFields(a.q.record)
	groupOf := map[int][]int{}
	for _, g := range canonical(a.groups) {
		for _, m := range g {
			groupOf[m] = g
		}
	}
	var exact []int
	for i, k := range keys {
		if k == key {
			exact = append(exact, i)
		}
	}
	if len(exact) > 0 {
		if len(ans.Matches) != len(exact) || len(ans.Candidates) != 0 {
			return fmt.Errorf("%s query: %d matches and %d candidates, want %d matches",
				a.q.kind, len(ans.Matches), len(ans.Candidates), len(exact))
		}
		for i, m := range ans.Matches {
			if m.Index != exact[i] || m.RID != a.rids[exact[i]] {
				return fmt.Errorf("match %d: record %d (rid %d), want %d (rid %d)",
					i, m.Index, m.RID, exact[i], a.rids[exact[i]])
			}
			if a.groups != nil && !reflect.DeepEqual(m.Group.Indexes, groupOf[m.Index]) {
				return fmt.Errorf("match %d: group %v, job's group %v", i, m.Group.Indexes, groupOf[m.Index])
			}
		}
		return nil
	}
	if len(ans.Matches) != 0 {
		return fmt.Errorf("%s query: %d matches for a key stored nowhere", a.q.kind, len(ans.Matches))
	}
	type scored struct {
		idx  int
		dist float64
	}
	all := make([]scored, len(keys))
	for i, k := range keys {
		all[i] = scored{i, distance.Edit{}.Distance(key, k)}
	}
	sort.Slice(all, func(x, y int) bool {
		if all[x].dist != all[y].dist {
			return all[x].dist < all[y].dist
		}
		return all[x].idx < all[y].idx
	})
	want := min(queryK, len(all))
	if len(ans.Candidates) != want {
		return fmt.Errorf("%s query: %d candidates, want %d", a.q.kind, len(ans.Candidates), want)
	}
	for i, c := range ans.Candidates {
		w := all[i]
		if c.Index != w.idx || c.RID != a.rids[w.idx] || math.Abs(c.Distance-w.dist) > 1e-9 {
			return fmt.Errorf("%s query candidate %d: record %d at %.6f, brute force %d at %.6f",
				a.q.kind, i, c.Index, c.Distance, w.idx, w.dist)
		}
		if a.groups != nil && !reflect.DeepEqual(c.Group.Indexes, groupOf[c.Index]) {
			return fmt.Errorf("candidate %d: group %v, job's group %v", i, c.Group.Indexes, groupOf[c.Index])
		}
	}
	return nil
}
