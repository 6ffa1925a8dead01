package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"fuzzydup/internal/server"
)

// tally counts every outcome against the ops attempted: non-2xx
// responses, failed jobs and failed output checks.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// check counts one output check, failing it when err is non-nil.
func (t *tally) check(what string, err error) {
	t.attempted++
	if err != nil {
		t.fail("%s: %v", what, err)
	}
}

// instance is one in-process dedupd: the server, its WAL directory and
// the dataset the workload drives. Requests go through the server's
// root handler with real bodies and no sockets.
type instance struct {
	srv  *server.Server
	h    http.Handler
	dir  string
	ds   string
	rids []int64
	t    *tally
}

// pollEvery is the job-status polling interval of the client: fine
// enough to time a 200 ms repair to 0.5%, coarse enough that the poller
// takes little from the job it waits on.
const pollEvery = time.Millisecond

// jobTimeout bounds the wait for one job.
const jobTimeout = 120 * time.Second

// startInstance starts a server with one job worker and its WAL in a
// fresh directory under walRoot, fsync on.
func startInstance(walRoot string, t *tally) (*instance, error) {
	dir, err := os.MkdirTemp(walRoot, "wal-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Workers: 1,
		DataDir: dir,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &instance{srv: srv, h: srv.Handler(), dir: dir, t: t}, nil
}

func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.srv.Shutdown(ctx); err != nil {
		in.t.fail("shutdown: %v", err)
	}
	os.RemoveAll(in.dir)
}

// do sends one request and returns the status and body. Every call is
// an attempted op; a non-2xx status is a failed one.
func (in *instance) do(method, path string, body []byte) (int, []byte) {
	in.t.attempted++
	code, out := in.send(method, path, body)
	if code < 200 || code > 299 {
		in.t.fail("%s %s: %d %s", method, path, code, bytes.TrimSpace(out))
	}
	return code, out
}

// send is do without the accounting (status polls).
func (in *instance) send(method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	in.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// createDataset registers a dataset and streams records into it as
// NDJSON, keeping the rids the server minted.
func (in *instance) createDataset(records [][]string) error {
	code, body := in.do("POST", "/v1/datasets", []byte(`{"name":"bench"}`))
	if code != http.StatusCreated && code != http.StatusOK {
		return fmt.Errorf("create dataset: %d", code)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("create dataset: %v", err)
	}
	in.ds = info.ID
	code, body = in.do("POST", in.dsPath("/records"), ndjson(records))
	if code != http.StatusOK {
		return fmt.Errorf("ingest: %d", code)
	}
	var app struct {
		Added     int     `json:"added"`
		RecordIDs []int64 `json:"record_ids"`
	}
	if err := json.Unmarshal(body, &app); err != nil || app.Added != len(records) {
		return fmt.Errorf("ingest: added %d of %d records (%v)", app.Added, len(records), err)
	}
	in.rids = app.RecordIDs
	return nil
}

func (in *instance) dsPath(suffix string) string { return "/v1/datasets/" + in.ds + suffix }

// jobSpec is the body of POST /v1/jobs.
type jobSpec struct {
	Dataset     string    `json:"dataset"`
	Index       string    `json:"index,omitempty"`
	UseSQL      bool      `json:"use_sql,omitempty"`
	Incremental bool      `json:"incremental,omitempty"`
	K           []int     `json:"k"`
	C           []float64 `json:"c"`
}

// runJob submits a job and waits until it is done. It returns the job
// ID; a job that fails is counted.
func (in *instance) runJob(spec jobSpec) (string, error) {
	spec.Dataset = in.ds
	body, _ := json.Marshal(spec)
	code, out := in.do("POST", "/v1/jobs", body)
	if code != http.StatusAccepted {
		return "", fmt.Errorf("submit job: %d", code)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &st); err != nil {
		return "", err
	}
	return st.ID, in.waitJob(st.ID)
}

// waitJob polls a job until it reaches a terminal state.
func (in *instance) waitJob(id string) error {
	deadline := time.Now().Add(jobTimeout)
	var st struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	for time.Now().Before(deadline) {
		code, out := in.send("GET", "/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			in.t.fail("poll job %s: %d", id, code)
			return fmt.Errorf("poll job %s: %d", id, code)
		}
		if err := json.Unmarshal(out, &st); err != nil {
			return err
		}
		switch st.State {
		case "done":
			return nil
		case "failed", "cancelled":
			in.t.fail("job %s %s: %s", id, st.State, st.Error)
			return fmt.Errorf("job %s %s", id, st.State)
		}
		time.Sleep(pollEvery)
	}
	in.t.fail("job %s: no result within %s", id, jobTimeout)
	return fmt.Errorf("job %s timed out", id)
}

// jobResult is the part of GET /v1/jobs/{id}/result the checks read.
type jobResult struct {
	Results []struct {
		Groups          [][]int `json:"groups"`
		Representatives []int   `json:"representatives"`
	} `json:"results"`
}

func (in *instance) result(id string) (jobResult, error) {
	var r jobResult
	code, out := in.do("GET", "/v1/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		return r, fmt.Errorf("job result: %d", code)
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return r, err
	}
	if len(r.Results) != 1 {
		return r, fmt.Errorf("job result: %d sweep results, want 1", len(r.Results))
	}
	return r, nil
}

// queryAnswer is the part of a query response the checks read.
type queryAnswer struct {
	Matches []struct {
		Index int   `json:"index"`
		RID   int64 `json:"rid"`
		Group struct {
			Indexes []int `json:"indexes"`
		} `json:"group"`
	} `json:"matches"`
	Candidates []struct {
		Index    int     `json:"index"`
		RID      int64   `json:"rid"`
		Distance float64 `json:"distance"`
		Group    struct {
			Indexes []int `json:"indexes"`
		} `json:"group"`
	} `json:"candidates"`
}

// query sends one point query and returns its latency and raw answer.
func (in *instance) query(q query) (time.Duration, []byte) {
	t0 := time.Now()
	_, out := in.do("POST", in.dsPath("/query"), q.body)
	return time.Since(t0), out
}
