package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/server"
)

// gfred is an in-process extraction service wired like the gfred command:
// a durable queue with its defaults (one worker, capacity 64), the HTTP API
// on a loopback listener, and a spool directory under the build directory.
type gfred struct {
	q      *server.Queue
	srv    *http.Server
	base   string
	spool  string
	client *http.Client
	served chan error
}

// startGfred starts the service with the given tenant policy.
func startGfred(buildDir string, policy server.TenantPolicy) (*gfred, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	spool, err := os.MkdirTemp(buildDir, "gfred-spool-")
	if err != nil {
		return nil, err
	}
	rec := obs.NewRecorder()
	q, err := server.NewQueue(server.Config{
		Dir:      filepath.Join(spool, "spool"),
		Recorder: rec,
		Journal:  obs.NewJournal(obs.DefaultJournalCapacity),
		Policy:   policy,
	})
	if err != nil {
		os.RemoveAll(spool)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		q.Drain(0)
		os.RemoveAll(spool)
		return nil, err
	}
	g := &gfred{
		q:      q,
		srv:    &http.Server{Handler: server.NewServer(q, rec)},
		base:   "http://" + ln.Addr().String(),
		spool:  spool,
		client: &http.Client{},
		served: make(chan error, 1),
	}
	go func() { g.served <- g.srv.Serve(ln) }()
	return g, nil
}

// stop drains the queue without grace (cancelling whatever still runs),
// shuts the listener down, waits for the server goroutine and removes the
// spool.
func (g *gfred) stop() error {
	g.q.Drain(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := g.srv.Shutdown(ctx)
	if serr := <-g.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	g.client.CloseIdleConnections()
	if rerr := os.RemoveAll(g.spool); err == nil {
		err = rerr
	}
	return err
}

// submit posts one raw EQN netlist as tenant. The job state is decoded from
// a 202 reply; any other status comes back with a nil state.
func (g *gfred) submit(ctx context.Context, tenant string, eqn []byte) (int, *server.JobState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/jobs?format=eqn", bytes.NewReader(eqn))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Tenant", tenant)
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, nil, nil
	}
	st := &server.JobState{}
	if err := json.Unmarshal(body, st); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("job state: %w", err)
	}
	return resp.StatusCode, st, nil
}

// awaitTerminal follows GET /jobs/{id}/events and returns when the job's
// terminal event arrives.
func (g *gfred) awaitTerminal(ctx context.Context, id string) (time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return time.Time{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := g.client.Do(req)
	if err != nil {
		return time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Time{}, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Ev  string `json:"ev"`
			Job string `json:"job"`
		}
		if json.Unmarshal([]byte(data), &ev) != nil || ev.Job != id {
			continue
		}
		if ev.Ev == "job_done" || ev.Ev == "job_failed" {
			seen := time.Now()
			io.Copy(io.Discard, resp.Body) //nolint:errcheck — the stream ends after the terminal event
			return seen, nil
		}
	}
	if err := sc.Err(); err != nil {
		return time.Time{}, err
	}
	return time.Time{}, fmt.Errorf("events: stream for %s ended without a terminal event", id)
}

// state fetches one job's state.
func (g *gfred) state(ctx context.Context, id string) (*server.JobState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("job %s: HTTP %d", id, resp.StatusCode)
	}
	st := &server.JobState{}
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		return nil, fmt.Errorf("job %s: %w", id, err)
	}
	return st, nil
}

// jobTiming is one job followed from POST to its terminal event.
type jobTiming struct {
	Submit  time.Duration // POST until the 202 reply
	Latency time.Duration // POST until the client saw the terminal event
	State   *server.JobState
	Seen    time.Time
}

// queueWait, run, overhead and notify split the job's life by the
// server's own timestamps: submitted → started → finished, the part of the
// run outside the extraction it reports, and finished → terminal event seen
// by the client.
func (t *jobTiming) queueWait() time.Duration {
	return time.Duration(t.State.StartedUnixNS - t.State.SubmittedUnixNS)
}

func (t *jobTiming) run() time.Duration {
	return time.Duration(t.State.FinishedUnixNS - t.State.StartedUnixNS)
}

func (t *jobTiming) overhead() time.Duration {
	if t.State.Result == nil {
		return 0
	}
	return t.run() - time.Duration(t.State.Result.RuntimeSeconds*float64(time.Second))
}

func (t *jobTiming) notify() time.Duration {
	return t.Seen.Sub(time.Unix(0, t.State.FinishedUnixNS))
}

// runJob submits d as tenant, waits for its terminal event and checks the
// result: done, verified, and the planted P(x).
func (g *gfred) runJob(ctx context.Context, tenant string, d *design) (*jobTiming, error) {
	start := time.Now()
	code, st, err := g.submit(ctx, tenant, d.EQN)
	if err != nil {
		return nil, fmt.Errorf("%s: submit: %w", d.Name, err)
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("%s: submit: HTTP %d", d.Name, code)
	}
	t := &jobTiming{Submit: time.Since(start)}
	if t.Seen, err = g.awaitTerminal(ctx, st.ID); err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	t.Latency = t.Seen.Sub(start)
	if t.State, err = g.state(ctx, st.ID); err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	switch res := t.State.Result; {
	case t.State.Status != server.StatusDone || res == nil:
		return t, fmt.Errorf("%s: job %s %s: %s", d.Name, st.ID, t.State.Status, t.State.Error)
	case !res.Verified || res.Polynomial != d.P.String():
		return t, fmt.Errorf("%s: %w: job returned %s (verified %v), planted %v",
			d.Name, errWrongPoly, res.Polynomial, res.Verified, d.P)
	}
	return t, nil
}
