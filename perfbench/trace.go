package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/runstore"
)

// span is one timed call into a layer. Spans of one run share the run's
// runstore key. Lane names the serial thread of control the span ran on:
// lane 0 is the benchmark's main goroutine, lanes 1..P the matrix callers,
// and serverLane the farm's workers, whose spans are leaves.
type span struct {
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Lane   int    `json:"lane"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	noParent   = int32(-1)
	serverLane = -1
)

// recorder keeps the spans of one traced pass in memory.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// owner maps a run's key to the span of the call that owns the run, so
	// calls made by code the benchmark does not control (the farm server's
	// store lookups and executions) hang under the right cell.
	owner map[string]int32
	// params maps a run's key to its parameters.
	params map[string]harness.RunParams
	// hits retains the records the traced store served.
	hits []hit
	// events and instr total the simulated work of the runs the benchmark
	// decomposed: engine events, and committed plus aborted instructions.
	events, instr uint64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), owner: make(map[string]int32), params: make(map[string]harness.RunParams)}
}

// hit is a record the traced store served: the run's key and its payload.
type hit struct {
	key     string
	payload []byte
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id.
func (r *recorder) begin(name, key string, lane int, parent int32) int32 {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Key: key, Lane: lane, Parent: parent, Start: t})
	return int32(len(r.spans) - 1)
}

// end closes span id.
func (r *recorder) end(id int32) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// own records span id as the owner of the run of p, keyed key.
func (r *recorder) own(key string, id int32, p harness.RunParams) {
	r.mu.Lock()
	r.owner[key] = id
	r.params[key] = p
	r.mu.Unlock()
}

// setKey labels span id with its run's key once the key is known.
func (r *recorder) setKey(id int32, key string) {
	r.mu.Lock()
	r.spans[id].Key = key
	r.mu.Unlock()
}

// beginOwned opens a span under the owner of key: on the owner's lane when
// the caller is the owner's own goroutine, else on serverLane.
func (r *recorder) beginOwned(name, key string, onOwnerLane bool) int32 {
	r.mu.Lock()
	parent, ok := r.owner[key]
	lane := serverLane
	if !ok {
		parent = noParent
	} else if onOwnerLane {
		lane = r.spans[parent].Lane
	}
	r.mu.Unlock()
	return r.begin(name, key, lane, parent)
}

// simulated adds one decomposed run's simulated work.
func (r *recorder) simulated(events, instr uint64) {
	r.mu.Lock()
	r.events += events
	r.instr += instr
	r.mu.Unlock()
}

// served retains a record the traced store returned on a hit.
func (r *recorder) served(key string, payload []byte) {
	r.mu.Lock()
	r.hits = append(r.hits, hit{key, payload})
	r.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it covered by
// its children on the same lane. Children on other lanes ran concurrently
// and do not shorten their parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent != noParent && spans[s.Parent].Lane == s.Lane {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(interval{s.Start, s.End}, kids[i])
	}
	return self
}

// checkAccounting verifies that on every lane but serverLane the self times
// add up to the time the lane was busy: the union of the lane's entry spans,
// which on lane 0 is the pass itself. A span left open, a child escaping its
// parent, or two overlapping calls on one serial lane break the identity.
// tolerance is the allowed absolute gap in nanoseconds.
func checkAccounting(spans []span, self []int64, tolerance int64) error {
	sum := make(map[int]int64)
	entries := make(map[int][]interval)
	for i, s := range spans {
		if s.End == 0 || s.End < s.Start {
			return fmt.Errorf("span %s (%d) never ended", s.Name, i)
		}
		if s.Lane == serverLane {
			continue
		}
		sum[s.Lane] += self[i]
		if s.Parent == noParent || spans[s.Parent].Lane != s.Lane {
			entries[s.Lane] = append(entries[s.Lane], interval{s.Start, s.End})
		}
	}
	for lane, ivs := range entries {
		busy := covered(interval{0, 1<<63 - 1}, ivs)
		if d := sum[lane] - busy; d > tolerance || -d > tolerance {
			return fmt.Errorf("lane %d: self times add up to %d ns, busy %d ns", lane, sum[lane], busy)
		}
	}
	return nil
}

// writeSpanFile writes the spans of every traced pass to path, one JSON
// object per line.
func writeSpanFile(path string, passes [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for pass, spans := range passes {
		for _, s := range spans {
			if err := enc.Encode(struct {
				Pass int `json:"pass"`
				span
			}{pass, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend times every Get and Put on a runstore.Backend, as spans
// owned by the run whose key is accessed.
type tracedBackend struct {
	inner runstore.Backend
	rec   *recorder
	// onOwnerLane is set when the store is called from the owning run's
	// goroutine (the local sweep), clear for the farm server's workers.
	onOwnerLane bool
}

func (b *tracedBackend) Get(key string) ([]byte, bool, error) {
	id := b.rec.beginOwned("runstore.get", key, b.onOwnerLane)
	payload, ok, err := b.inner.Get(key)
	b.rec.end(id)
	if ok {
		b.rec.served(key, payload)
	}
	return payload, ok, err
}

func (b *tracedBackend) Put(key string, payload []byte) error {
	id := b.rec.beginOwned("runstore.put", key, b.onOwnerLane)
	defer b.rec.end(id)
	return b.inner.Put(key, payload)
}

func (b *tracedBackend) Contains(key string) bool { return b.inner.Contains(key) }

// laneTransport times each HTTP request of one matrix caller, from sending
// it until its body is closed, as a child of the caller's current cell.
type laneTransport struct {
	inner http.RoundTripper
	rec   *recorder
	lane  int
	cell  *int32 // the lane's current cell span; written by the same goroutine
}

func (t *laneTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "farm.http"
	if req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/jobs/") {
		name = "farm.poll"
	}
	id := t.rec.begin(name, "", t.lane, *t.cell)
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.rec.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.rec.end(id) }}
	return resp, nil
}

// spanBody ends its request's span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
