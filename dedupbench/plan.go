package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"fuzzydup/internal/dataset"
	"fuzzydup/internal/strutil"
)

// Corpus shape shared by every workload. The batch and online workloads
// solve the same corpusSize records; churn keeps a churnSize sample of
// them, because an incremental repair's cost grows with the live count.
const (
	corpusSize = 700
	churnSize  = 300
	freshSize  = 400 // records from a disjoint generator seed
	queryK     = 5   // candidates asked for by every point query
	streamLen  = 4096
)

// Query kinds and the mix every query stream draws from.
const (
	kindHit  = "hit"  // a stored record: the exact-match path
	kindNear = "near" // a one-character edit of a stored record
	kindNew  = "new"  // a record from a disjoint generator seed
)

var queryKinds = []string{kindHit, kindNear, kindNew}

// pickKind draws a query kind: 60% hit, 30% near, 10% new.
func pickKind(rng *rand.Rand) string {
	switch r := rng.Float64(); {
	case r < 0.6:
		return kindHit
	case r < 0.9:
		return kindNear
	default:
		return kindNew
	}
}

// corpus is everything a workload sends, derived from the seed alone.
type corpus struct {
	records [][]string // batch/online corpus, in ingest order
	churn   [][]string // churn sample, in ingest order
	fresh   [][]string // disjoint-seed records equal to no corpus record
}

// baseSeed is the generator seed of the media corpus. The corpus is the
// same for every --seed, which permutes it and draws every request from
// it: at corpusSize records, a different generator seed alone moves a
// job's cost by a fifth, three times the run-to-run noise, so a seeded
// corpus would measure the corpus instead of the code.
const baseSeed = 1

// makeCorpus derives a workload's inputs from its seed: the media corpus
// in a seeded order, a seeded churn sample of it, and fresh records from
// generator seed -(seed+1), which no corpus shares.
func makeCorpus(seed int64) corpus {
	base := dataset.Media(dataset.Config{Size: corpusSize, Seed: baseSeed}).Records
	rng := rand.New(rand.NewSource(seed))
	c := corpus{records: make([][]string, len(base))}
	for i, j := range rng.Perm(len(base)) {
		c.records[i] = base[j]
	}
	for _, i := range rng.Perm(len(base))[:churnSize] {
		c.churn = append(c.churn, c.records[i])
	}
	keys := keySet(base)
	for _, r := range dataset.Media(dataset.Config{Size: freshSize, Seed: -(seed + 1)}).Records {
		if k := strutil.JoinFields(r); !keys[k] {
			keys[k] = true
			c.fresh = append(c.fresh, r)
		}
	}
	return c
}

func keySet(records [][]string) map[string]bool {
	m := make(map[string]bool, len(records))
	for _, r := range records {
		m[strutil.JoinFields(r)] = true
	}
	return m
}

// nearEdit returns a copy of rec with one letter of one field replaced by
// a different lowercase letter, chosen so the result's key is in no
// record of keys. It returns nil when no such edit was found.
func nearEdit(rng *rand.Rand, rec []string, keys map[string]bool) []string {
	for try := 0; try < 32; try++ {
		f := rng.Intn(len(rec))
		runes := []rune(rec[f])
		if len(runes) == 0 {
			continue
		}
		pos := rng.Intn(len(runes))
		old := []rune(strings.ToLower(string(runes[pos])))[0]
		c := rune('a' + rng.Intn(26))
		if c == old {
			continue
		}
		runes[pos] = c
		out := append([]string(nil), rec...)
		out[f] = string(runes)
		if !keys[strutil.JoinFields(out)] {
			return out
		}
	}
	return nil
}

// query is one point query of a stream.
type query struct {
	kind   string
	record []string
	body   []byte
}

func queryBody(rec []string) []byte {
	b, _ := json.Marshal(struct {
		Record []string `json:"record"`
		K      int      `json:"k"`
	}{rec, queryK})
	return b
}

// drawQuery draws one query of the mix against the live records.
func drawQuery(rng *rand.Rand, live [][]string, keys map[string]bool, fresh [][]string) query {
	for {
		kind := pickKind(rng)
		var rec []string
		switch kind {
		case kindHit:
			rec = live[rng.Intn(len(live))]
		case kindNear:
			rec = nearEdit(rng, live[rng.Intn(len(live))], keys)
		default:
			rec = fresh[rng.Intn(len(fresh))]
			if keys[strutil.JoinFields(rec)] {
				rec = nil // inserted by churn: no longer new
			}
		}
		if rec != nil {
			return query{kind: kind, record: rec, body: queryBody(rec)}
		}
	}
}

// queryStream is the fixed stream the batch and online workloads cycle
// through: streamLen queries of the mix against the static corpus.
func queryStream(seed int64, c corpus) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	keys := keySet(c.records)
	out := make([]query, streamLen)
	for i := range out {
		out[i] = drawQuery(rng, c.records, keys, c.fresh)
	}
	return out
}

// ndjson encodes records as newline-delimited JSON arrays.
func ndjson(records [][]string) []byte {
	var b bytes.Buffer
	for _, r := range records {
		line, _ := json.Marshal(r)
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// churnOp is one write of the churn loop, against the mirror's rids.
type churnOp struct {
	method string
	path   string // relative to /v1/datasets/{id}
	body   []byte
	kind   string   // insert, update, delete
	rid    int64    // the record written
	record []string // its new value (nil for a delete)
}

// mirror tracks a dataset's records and rids exactly as the server's
// store orders them: appends at the end, deletes close the gap, rids are
// minted from a counter starting after the ingested records.
type mirror struct {
	records [][]string
	rids    []int64
	nextRID int64
	keys    map[string]int // key -> number of live records with it
}

func newMirror(records [][]string) *mirror {
	m := &mirror{keys: make(map[string]int)}
	for _, r := range records {
		m.append(r)
	}
	return m
}

func (m *mirror) append(r []string) {
	m.nextRID++
	m.records = append(m.records, r)
	m.rids = append(m.rids, m.nextRID)
	m.keys[strutil.JoinFields(r)]++
}

func (m *mirror) remove(i int) {
	m.unkey(m.records[i])
	m.records = append(m.records[:i:i], m.records[i+1:]...)
	m.rids = append(m.rids[:i:i], m.rids[i+1:]...)
}

func (m *mirror) replace(i int, r []string) {
	m.unkey(m.records[i])
	m.records[i] = r
	m.keys[strutil.JoinFields(r)]++
}

func (m *mirror) unkey(r []string) {
	k := strutil.JoinFields(r)
	if m.keys[k]--; m.keys[k] == 0 {
		delete(m.keys, k)
	}
}

func (m *mirror) keySet() map[string]bool {
	s := make(map[string]bool, len(m.keys))
	for k := range m.keys {
		s[k] = true
	}
	return s
}

// snapshot copies the live records (the corpus a repair solves).
func (m *mirror) snapshot() [][]string {
	return append([][]string(nil), m.records...)
}

// churnPlan generates the churn workload's writes and queries from its
// seed: writes cycle insert, update, delete so the live count stays near
// churnSize, and every write is followed by churnQueries queries.
type churnPlan struct {
	rng   *rand.Rand
	m     *mirror
	fresh [][]string
	next  int // next fresh record to insert
	step  int
}

const churnQueries = 20

func newChurnPlan(seed int64, c corpus) *churnPlan {
	return &churnPlan{rng: rand.New(rand.NewSource(seed ^ 0xc4a7)), m: newMirror(c.churn), fresh: c.fresh}
}

// write returns the next write and applies it to the mirror.
func (p *churnPlan) write() churnOp {
	defer func() { p.step++ }()
	m := p.m
	switch p.step % 3 {
	case 0:
		for {
			r := p.fresh[p.next%len(p.fresh)]
			p.next++
			if m.keys[strutil.JoinFields(r)] == 0 {
				m.append(r)
				return churnOp{method: "POST", path: "/records", body: ndjson([][]string{r}), kind: "insert", rid: m.nextRID, record: r}
			}
		}
	case 1:
		for {
			i := p.rng.Intn(len(m.records))
			if r := nearEdit(p.rng, m.records[i], m.keySet()); r != nil {
				rid := m.rids[i]
				m.replace(i, r)
				body, _ := json.Marshal(r)
				return churnOp{method: "PUT", path: fmt.Sprintf("/records/%d", rid), body: body, kind: "update", rid: rid, record: r}
			}
		}
	default:
		i := p.rng.Intn(len(m.records))
		rid := m.rids[i]
		m.remove(i)
		return churnOp{method: "DELETE", path: fmt.Sprintf("/records/%d", rid), kind: "delete", rid: rid}
	}
}

// queries returns the queries that follow a write, against the mirror's
// current records.
func (p *churnPlan) queries() []query {
	keys := p.m.keySet()
	out := make([]query, churnQueries)
	for i := range out {
		out[i] = drawQuery(p.rng, p.m.records, keys, p.fresh)
	}
	return out
}
