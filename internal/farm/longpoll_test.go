package farm

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
)

// prompt bounds how long a reply that should be immediate may take on a slow
// or race-instrumented host; it is far below MaxWait, so a reply that sat
// out the whole wait fails it.
const prompt = 2 * time.Second

// blockedServer returns a one-worker server whose executions park until
// release is closed, and a channel closed when the first one starts.
func blockedServer(t *testing.T) (srv *Server, started, release chan struct{}) {
	t.Helper()
	started = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	srv = NewServer(Config{
		Workers: 1,
		Retry:   fastRetry(),
		Exec: func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure) {
			once.Do(func() { close(started) })
			<-release
			return okExec(p)
		},
	})
	return srv, started, release
}

// watchGets wraps h, counting the GET /jobs/{key} requests that reach it
// and signalling their arrival on the returned channel; the tests wait for
// the first arrival only, so later ones are not queued.
func watchGets(h http.Handler) (http.Handler, *atomic.Int64, <-chan struct{}) {
	var gets atomic.Int64
	arrived := make(chan struct{}, 1)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/jobs/") {
			gets.Add(1)
			select {
			case arrived <- struct{}{}:
			default:
			}
		}
		h.ServeHTTP(w, r)
	}), &gets, arrived
}

// getJob issues one raw GET /jobs/{key}?wait=... and decodes a 200 reply.
func getJob(t *testing.T, base, key, wait string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + key + "?wait=" + wait)
	if err != nil {
		t.Error(err)
		return JobStatus{}, 0
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Error(err)
		}
	}
	return st, resp.StatusCode
}

func TestLongPollReturnsOnCompletion(t *testing.T) {
	srv, started, release := blockedServer(t)
	defer srv.Close()
	h, _, arrived := watchGets(srv.Handler())
	ts := httptest.NewServer(h)
	defer ts.Close()

	sub, err := srv.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	type reply struct {
		st   JobStatus
		code int
		at   time.Time
	}
	got := make(chan reply, 1)
	go func() {
		st, code := getJob(t, ts.URL, sub.Key, "10s")
		got <- reply{st, code, time.Now()}
	}()
	<-arrived
	released := time.Now()
	close(release)
	r := <-got
	if r.code != http.StatusOK || r.st.State != StateDone || len(r.st.Result) == 0 {
		t.Fatalf("long-poll reply: HTTP %d, %+v; want 200 and done with a result", r.code, r.st)
	}
	if lag := r.at.Sub(released); lag > prompt {
		t.Fatalf("long-poll answered %v after the job finished, want promptly", lag)
	}
}

func TestLongPollElapsesOnRunningJob(t *testing.T) {
	srv, started, release := blockedServer(t)
	defer srv.Close()
	defer close(release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sub, err := srv.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	asked := time.Now()
	st, code := getJob(t, ts.URL, sub.Key, "50ms")
	if took := time.Since(asked); took < 50*time.Millisecond || took > prompt {
		t.Fatalf("50ms long-poll took %v", took)
	}
	if code != http.StatusOK || st.State != StateRunning || st.Key != sub.Key {
		t.Fatalf("elapsed long-poll: HTTP %d, %+v; want 200 and running", code, st)
	}
}

func TestLongPollReleasedByClose(t *testing.T) {
	srv, started, release := blockedServer(t)
	h, _, arrived := watchGets(srv.Handler())
	ts := httptest.NewServer(h)
	defer ts.Close()

	sub, err := srv.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	got := make(chan JobStatus, 1)
	go func() {
		st, _ := getJob(t, ts.URL, sub.Key, "10s")
		got <- st
	}()
	<-arrived
	// Close waits for the worker's job in hand, so it runs aside until the
	// release below; the parked poll must not wait for it.
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case st := <-got:
		if st.State != StateRunning {
			t.Fatalf("poll released by Close reported %s, want running", st.State)
		}
	case <-time.After(prompt):
		t.Fatal("Close did not release the parked long-poll")
	}
	// In-process waiters are told why their wait ended.
	ctx, cancel := context.WithTimeout(context.Background(), prompt)
	defer cancel()
	if st, err := srv.WaitJob(ctx, sub.Key); !errors.Is(err, ErrClosed) || st.State != StateRunning {
		t.Fatalf("WaitJob on a closed server: %+v, %v; want running and ErrClosed", st, err)
	}
	close(release)
	<-closed
}

func TestLongPollBadRequests(t *testing.T) {
	srv := NewServer(Config{Workers: 1, Retry: fastRetry(), Exec: okExec})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	asked := time.Now()
	if _, code := getJob(t, ts.URL, "no-such-key", "10s"); code != http.StatusNotFound {
		t.Fatalf("unknown key: HTTP %d, want 404", code)
	}
	if took := time.Since(asked); took > prompt {
		t.Fatalf("unknown key took %v, want an immediate 404", took)
	}
	if _, err := srv.WaitJob(context.Background(), "no-such-key"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("WaitJob on an unknown key: err = %v, want ErrUnknownJob", err)
	}

	sub, err := srv.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"soon", "5", "-1s", "1s%20"} {
		if _, code := getJob(t, ts.URL, sub.Key, bad); code != http.StatusBadRequest {
			t.Errorf("wait=%s: HTTP %d, want 400", bad, code)
		}
	}
}

func TestClientWaitLongPolls(t *testing.T) {
	srv, started, release := blockedServer(t)
	defer srv.Close()
	h, gets, arrived := watchGets(srv.Handler())
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL)
	c.PollInterval = time.Millisecond
	c.WaitTimeout = 5 * time.Second
	sub, err := c.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	go func() {
		<-arrived
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	fin, err := c.Wait(sub.Key)
	if err != nil || fin.State != StateDone {
		t.Fatalf("Wait: %+v, %v", fin, err)
	}
	// A 1ms poll interval would have asked ~100 times; the long-poll once.
	if n := gets.Load(); n != 1 {
		t.Fatalf("Wait made %d status requests, want 1 long-poll", n)
	}
}

func TestClientWaitPacesEarlyReplies(t *testing.T) {
	srv := NewServer(Config{
		Workers: 1,
		Retry:   fastRetry(),
		Exec: func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure) {
			time.Sleep(30 * time.Millisecond)
			return okExec(p)
		},
	})
	defer srv.Close()
	// A server from before long-poll: the wait parameter never arrives.
	strip := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		q.Del("wait")
		r.URL.RawQuery = q.Encode()
		srv.Handler().ServeHTTP(w, r)
	})
	h, gets, _ := watchGets(strip)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL)
	c.PollInterval = time.Millisecond
	c.WaitTimeout = 5 * time.Second
	sub, err := c.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(sub.Key)
	if err != nil || fin.State != StateDone {
		t.Fatalf("Wait against a pre-long-poll server: %+v, %v", fin, err)
	}
	// Sleeps growing from 1ms by x1.5 cover any plausible run in a few
	// dozen polls; an unpaced loop would make hundreds.
	if n := gets.Load(); n < 2 || n > 40 {
		t.Fatalf("Wait made %d status requests, want a few paced re-polls", n)
	}
}

func TestRunnerSkipsWaitForFinishedJob(t *testing.T) {
	srv := NewServer(Config{Workers: 1, Retry: fastRetry(), Exec: okExec})
	defer srv.Close()
	h, gets, _ := watchGets(srv.Handler())
	ts := httptest.NewServer(h)
	defer ts.Close()

	sub, err := srv.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := srv.WaitJob(ctx, sub.Key); err != nil {
		t.Fatal(err)
	}
	p, err := quickSpec(1).Params()
	if err != nil {
		t.Fatal(err)
	}
	res, fail, _ := NewClient(ts.URL).Runner()(p)
	if fail != nil || res.Stats.Cycles != 42 {
		t.Fatalf("Runner on a finished twin: res=%+v fail=%+v", res, fail)
	}
	if n := gets.Load(); n != 0 {
		t.Fatalf("Runner polled %d times for a job Submit already reported done", n)
	}
}

func TestDrainHonoursContext(t *testing.T) {
	srv, started, release := blockedServer(t)
	defer srv.Close()
	defer close(release)
	if _, err := srv.Submit(quickSpec(1)); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	asked := time.Now()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain over a stuck job: err = %v, want deadline exceeded", err)
	}
	if took := time.Since(asked); took > prompt {
		t.Fatalf("Drain returned %v after its 50ms deadline", took)
	}
}
