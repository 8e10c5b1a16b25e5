package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cpu"
	"repro/internal/farm"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/runstore"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// bench is one workload: a fixed input derived from the seed, run as whole
// timed passes through the program's public entry points.
type bench interface {
	// prepare readies the state the next pass starts from. It is not timed,
	// except before the first pass, where it is part of set-up. rec is the
	// recorder of the next pass, nil when that pass is untraced.
	prepare(rec *recorder) error
	// pass runs one timed pass and reports how many runs or cells it
	// attempted and how many failed. With rec nil it calls the entry points
	// with nothing wrapped; with rec set it records spans under root.
	pass(rec *recorder, root int32) (attempted, failed int, err error)
	// verify checks the last pass's outputs and returns its deterministic
	// counts. It is not timed.
	verify() (passCheck, error)
	close()
}

// passCheck is what verify learns about a pass.
type passCheck struct {
	counts counts
	// farm holds the server's counters after a farm pass.
	farm farm.Stats
}

// newBench builds the named workload; the returned bench is prepared for its
// first pass. dir is a fresh directory it may use.
func newBench(name string, seed uint64, dir string) (bench, error) {
	var b bench
	var err error
	switch name {
	case "paper-run":
		b, err = newPaperRun(seed)
	case "sweep-cold":
		b, err = newSweepCold(seed, dir)
	case "farm-resume":
		b, err = newFarmResume(seed, dir)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	if err := b.prepare(nil); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// paperRuns are the paper-scale runs of paper-run: requester-wins
// abort/fallback (B), the CLEAR lock walk (C), and the EWMA policy path,
// which diverges from the default on mwobject.
var paperRuns = []struct {
	bench  string
	config harness.ConfigID
	policy string
}{
	{"intruder", harness.ConfigB, ""},
	{"intruder", harness.ConfigC, ""},
	{"yada", harness.ConfigC, ""},
	{"bayes", harness.ConfigB, ""},
	{"sorted-list", harness.ConfigC, ""},
	{"mwobject", harness.ConfigC, "ewma"},
}

// paperSeeds is how many consecutive seeds, from the workload seed, each
// paper run is made on. How much work a run does depends on its seed; over
// two seeds a pass's work varies about a third less between workload seeds.
const paperSeeds = 2

// paperRun calls harness.Run serially on the paperRuns with the default
// paper-scale parameters.
type paperRun struct {
	params  []harness.RunParams
	want    []string // digests harness.Run produced at set-up
	results []*harness.RunResult
}

func newPaperRun(seed uint64) (*paperRun, error) {
	w := &paperRun{}
	for _, r := range paperRuns {
		for i := uint64(0); i < paperSeeds; i++ {
			p := harness.DefaultRunParams(r.bench, r.config)
			p.Seed = seed + i
			var err error
			if p.Policy, err = policy.Parse(r.policy); err != nil {
				return nil, err
			}
			res, err := harness.Run(p)
			if err != nil {
				return nil, fmt.Errorf("reference run: %w", err)
			}
			w.params = append(w.params, p)
			w.want = append(w.want, res.Stats.Digest())
		}
	}
	return w, nil
}

func (w *paperRun) prepare(*recorder) error { return nil }

func (w *paperRun) pass(rec *recorder, root int32) (attempted, failed int, err error) {
	w.results = w.results[:0]
	for _, p := range w.params {
		attempted++
		var res *harness.RunResult
		var err error
		if rec == nil {
			res, err = harness.Run(p)
		} else {
			res, err = runSteps(rec, p, p.Spec().Key(), 0, root)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: run failed:", err)
			failed++
		}
		w.results = append(w.results, res)
	}
	return attempted, failed, nil
}

func (w *paperRun) verify() (passCheck, error) {
	var c passCheck
	for i, res := range w.results {
		p := w.params[i]
		if res == nil {
			return c, fmt.Errorf("%s/%s%s seed %d failed", p.Benchmark, p.Config, policySuffix(p), p.Seed)
		}
		if got := res.Stats.Digest(); got != w.want[i] {
			return c, fmt.Errorf("%s/%s%s seed %d: digest %s, harness.Run gave %s",
				p.Benchmark, p.Config, policySuffix(p), p.Seed, got, w.want[i])
		}
		c.counts.add(res)
	}
	return c, nil
}

func (w *paperRun) close() {}

func policySuffix(p harness.RunParams) string {
	if p.Policy.IsDefault() {
		return ""
	}
	return "+" + p.Policy.Canonical()
}

// sweepOptions is the 456-run quick matrix of sweep-cold and farm-resume:
// every benchmark under B/P/C/W, retry limits {2,4}, three seeds from seed,
// 8 cores × 30 ops per run.
func sweepOptions(seed uint64) harness.MatrixOptions {
	return harness.MatrixOptions{
		Benchmarks:   workload.Names(),
		Configs:      harness.AllConfigs,
		Cores:        8,
		OpsPerThread: 30,
		Seeds:        []uint64{seed, seed + 1, seed + 2},
		RetryLimits:  []int{2, 4},
		MaxTicks:     800_000_000,
		Parallelism:  1,
	}
}

// matrixParams lists the run parameters RunMatrix executes for o, so the
// benchmark can read a pass's records back from the store it wrote.
func matrixParams(o harness.MatrixOptions) []harness.RunParams {
	var ps []harness.RunParams
	for _, b := range o.Benchmarks {
		for _, c := range o.Configs {
			for _, r := range o.RetryLimits {
				for _, s := range o.Seeds {
					ps = append(ps, harness.RunParams{
						Benchmark:    b,
						Config:       c,
						Cores:        o.Cores,
						OpsPerThread: o.OpsPerThread,
						RetryLimit:   r,
						Seed:         s,
						MaxTicks:     o.MaxTicks,
					})
				}
			}
		}
	}
	return ps
}

// readBack opens the store at dir afresh and sums the counts of every run of
// o; a missing record is an error.
func readBack(dir string, o harness.MatrixOptions) (counts, error) {
	var c counts
	st, err := runstore.Open(dir)
	if err != nil {
		return c, err
	}
	for _, p := range matrixParams(o) {
		res, ok := harness.LookupCached(st, p)
		if !ok {
			return c, fmt.Errorf("no record for %s/%s retry=%d seed=%d in the store", p.Benchmark, p.Config, p.RetryLimit, p.Seed)
		}
		c.add(res)
	}
	return c, nil
}

// matrixCSV renders m's cells, refusing a matrix with failures.
func matrixCSV(m *harness.Matrix) ([]byte, error) {
	if len(m.Failures) > 0 {
		return nil, fmt.Errorf("%d runs failed, first %s", len(m.Failures), m.Failures[0].String())
	}
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sweepCold runs the quick matrix serially into an empty on-disk store.
type sweepCold struct {
	dir   string
	opts  harness.MatrixOptions
	total int    // runs in one pass
	want  []byte // CSV of the set-up sweep
	n     int
	cur   string // store directory of the next or last pass
	st    runstore.Backend
	last  *harness.Matrix
}

func newSweepCold(seed uint64, dir string) (*sweepCold, error) {
	w := &sweepCold{dir: dir, opts: sweepOptions(seed)}
	w.total = len(matrixParams(w.opts))
	// The reference sweep is the same pass as the timed ones, so it also
	// warms the host up.
	if err := w.prepare(nil); err != nil {
		return nil, err
	}
	if _, _, err := w.pass(nil, noParent); err != nil {
		return nil, err
	}
	csv, err := matrixCSV(w.last)
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	w.want = csv
	return w, os.RemoveAll(w.cur)
}

func (w *sweepCold) prepare(rec *recorder) error {
	w.n++
	w.cur = filepath.Join(w.dir, fmt.Sprintf("pass%d", w.n))
	st, err := runstore.Open(w.cur)
	if err != nil {
		return err
	}
	w.st = st
	if rec != nil {
		w.st = &tracedBackend{inner: st, rec: rec, onOwnerLane: true}
	}
	return nil
}

func (w *sweepCold) pass(rec *recorder, root int32) (attempted, failed int, err error) {
	opts := w.opts
	opts.Store = w.st
	w.last, err = runMatrix(rec, root, opts, func(matrix int32) harness.RunnerFunc {
		return tracedLocalRunner(rec, w.st, matrix)
	})
	if err != nil {
		return 0, 0, err
	}
	return w.total, len(w.last.Failures), nil
}

func (w *sweepCold) verify() (passCheck, error) {
	defer os.RemoveAll(w.cur)
	var c passCheck
	csv, err := matrixCSV(w.last)
	if err != nil {
		return c, err
	}
	if !bytes.Equal(csv, w.want) {
		return c, errors.New("matrix CSV differs from the set-up sweep's")
	}
	c.counts, err = readBack(w.cur, w.opts)
	return c, err
}

func (w *sweepCold) close() { os.RemoveAll(w.dir) }

// runMatrix runs RunMatrix over opts. When traced, the call is a
// harness.matrix span and traced(span) supplies the runner its callers use.
func runMatrix(rec *recorder, root int32, opts harness.MatrixOptions, traced func(matrix int32) harness.RunnerFunc) (*harness.Matrix, error) {
	if rec == nil {
		return harness.RunMatrix(opts)
	}
	id := rec.begin("harness.matrix", "", 0, root)
	defer rec.end(id)
	opts.Runner = traced(id)
	opts.Store = nil
	return harness.RunMatrix(opts)
}

// tracedLocalRunner is RunCheckedCached's own composition — look up, run,
// encode, store — with each step timed and the run decomposed by runSteps.
// The sweep has one caller, lane 1; the span accounting check would reject
// overlapping calls.
func tracedLocalRunner(rec *recorder, st runstore.Backend, matrix int32) harness.RunnerFunc {
	const lane = 1
	return func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure, bool) {
		cell := rec.begin("harness.runner", "", lane, matrix)
		defer rec.end(cell)
		key := timedKey(rec, p, lane, cell)
		// Each pass starts from an empty store, so the lookup must miss.
		if _, hit, err := st.Get(key); hit || err != nil {
			return nil, runFailure(p, "cold store lookup: hit %v, error %v", hit, err), hit
		}
		res, err := runSteps(rec, p, key, lane, cell)
		if err != nil {
			return nil, runFailure(p, "%v", err), false
		}
		id := rec.begin("harness.encode", key, lane, cell)
		payload, err := harness.EncodeCacheRecord(res)
		rec.end(id)
		if err == nil {
			_ = st.Put(key, payload) // non-fatal, as in RunCheckedCached
		}
		return res, nil, false
	}
}

// runFailure is the failure of the run of p, for the matrix to record.
func runFailure(p harness.RunParams, format string, args ...any) *harness.RunFailure {
	return &harness.RunFailure{
		Benchmark:  p.Benchmark,
		Config:     p.Config,
		RetryLimit: p.RetryLimit,
		Seed:       p.Seed,
		Reason:     fmt.Sprintf(format, args...),
	}
}

// timedKey computes p's runstore key in a span and makes cell its owner.
func timedKey(rec *recorder, p harness.RunParams, lane int, cell int32) string {
	id := rec.begin("runstore.key", "", lane, cell)
	key := p.Spec().Key()
	rec.end(id)
	rec.setKey(id, key)
	rec.setKey(cell, key)
	rec.own(key, cell, p)
	return key
}

// memoryBase is harness's allocator base for the simulated memory; a drift
// shows as a digest mismatch on paper-run.
const memoryBase = 0x100000

// runSteps is harness.Run for the parameters the benchmark uses, split into
// its layers: workload set-up, machine build, the simulation, and the
// workload's verification. It records the simulated work on rec.
func runSteps(rec *recorder, p harness.RunParams, key string, lane int, parent int32) (res *harness.RunResult, err error) {
	run := rec.begin("harness.run", key, lane, parent)
	defer rec.end(run)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	step := func(name string, f func() error) error {
		id := rec.begin(name, key, lane, run)
		defer rec.end(id)
		return f()
	}
	var (
		b       workload.Benchmark
		memory  *mem.Memory
		rng     *sim.RNG
		machine *cpu.Machine
	)
	if err := step("workload.setup", func() error {
		var err error
		if b, err = workload.New(p.Benchmark); err != nil {
			return err
		}
		memory = mem.NewMemory(memoryBase)
		rng = sim.NewRNG(p.Seed)
		return b.Setup(memory, rng, p.Cores)
	}); err != nil {
		return nil, err
	}
	if err := step("cpu.build", func() error {
		var err error
		if machine, err = cpu.NewMachine(p.SystemConfig(), memory); err != nil {
			return err
		}
		feeds := make([]cpu.InvocationSource, p.Cores)
		for tid := range feeds {
			feeds[tid] = b.Source(tid, rng.Split(), p.OpsPerThread)
		}
		machine.AttachFeeds(feeds)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := step("cpu.run", func() error { return machine.Run(p.MaxTicks) }); err != nil {
		return nil, err
	}
	if err := step("workload.verify", func() error { return b.Verify(memory) }); err != nil {
		return nil, fmt.Errorf("verification failed: %w", err)
	}
	rec.simulated(machine.Engine.Executed, machine.Stats.Instructions+machine.Stats.AbortedInstructions)
	return &harness.RunResult{
		Params: p,
		Stats:  machine.Stats,
		Dir:    machine.Dir.Stats,
		Energy: stats.DefaultEnergyModel().Energy(machine.Stats, machine.Dir.Stats, p.Cores),
	}, nil
}

// farmResume resumes the quick matrix through an in-process farm server
// whose store already holds a seed-chosen 7/8 of the records.
type farmResume struct {
	dir      string
	opts     harness.MatrixOptions
	total    int    // cells in one pass
	want     []byte // CSV of the local sweep of the same matrix
	template string // store directory holding the pre-cached records
	hits     int    // cells the template serves
	n        int
	cur      string
	srv      *farmServer
	last     *harness.Matrix
}

func newFarmResume(seed uint64, dir string) (*farmResume, error) {
	w := &farmResume{dir: dir, opts: sweepOptions(seed), template: filepath.Join(dir, "template")}
	w.opts.Parallelism = 2
	local := w.opts
	ref := runstore.NewMem()
	local.Store = ref
	m, err := harness.RunMatrix(local)
	if err != nil {
		return nil, err
	}
	if w.want, err = matrixCSV(m); err != nil {
		return nil, fmt.Errorf("local sweep: %w", err)
	}
	tmpl, err := runstore.Open(w.template)
	if err != nil {
		return nil, err
	}
	// One cell in eight of every benchmark is left out, so each seed
	// executes the same mix of benchmarks and only the cells differ.
	ps := matrixParams(w.opts)
	w.total = len(ps)
	perBench := w.total / len(w.opts.Benchmarks)
	rng := rand.New(rand.NewSource(int64(seed)))
	for b := 0; b < w.total; b += perBench {
		for _, i := range rng.Perm(perBench)[perBench/8:] {
			key := ps[b+i].Spec().Key()
			payload, ok, err := ref.Get(key)
			if err != nil || !ok {
				return nil, fmt.Errorf("local sweep left no record for %s", key)
			}
			if err := tmpl.Put(key, payload); err != nil {
				return nil, err
			}
			w.hits++
		}
	}
	return w, nil
}

// linkTree recreates the directory tree src at dst, hard-linking its files.
// The store never writes a record in place (it renames a new file over the
// old), so the passes cannot alter the template through the links.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return os.Link(path, filepath.Join(dst, rel))
	})
}

// farmServer is a farm.Server configured as clearbench -serve configures it,
// serving HTTP on a loopback port.
type farmServer struct {
	fs     *farm.Server
	hs     *http.Server
	addr   string
	served chan error
}

func startFarm(st runstore.Backend, exec farm.ExecFunc) (*farmServer, error) {
	fs := farm.NewServer(farm.Config{
		Store:     st,
		Workers:   2,
		Retry:     farm.DefaultRetryPolicy(),
		Telemetry: trace.NewLive(),
		Metrics:   metrics.NewRegistry(),
		Exec:      exec,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fs.Close()
		return nil, err
	}
	s := &farmServer{
		fs:     fs,
		hs:     &http.Server{Handler: fs.Handler(), ReadHeaderTimeout: 5 * time.Second},
		addr:   ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the farm, closes it and its listener, and waits for the
// server goroutine to return.
func (s *farmServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.fs.Drain(ctx)
	s.fs.Close()
	if serr := s.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return err
}

// prepare links the pre-cached records into a fresh directory, opens it as
// a store with a cold in-memory front, and starts a farm server over it.
func (w *farmResume) prepare(rec *recorder) error {
	w.n++
	w.cur = filepath.Join(w.dir, fmt.Sprintf("pass%d", w.n))
	if err := linkTree(w.template, w.cur); err != nil {
		return err
	}
	st, err := runstore.Open(w.cur)
	if err != nil {
		return err
	}
	var backend runstore.Backend = st
	var exec farm.ExecFunc
	if rec != nil {
		backend = &tracedBackend{inner: st, rec: rec}
		exec = func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure) {
			id := rec.beginOwned("farm.exec", p.Spec().Key(), false)
			defer rec.end(id)
			return harness.RunChecked(p)
		}
	}
	w.srv, err = startFarm(backend, exec)
	return err
}

func (w *farmResume) pass(rec *recorder, root int32) (attempted, failed int, err error) {
	opts := w.opts
	opts.Runner = farm.NewClient(w.srv.addr).Runner()
	w.last, err = runMatrix(rec, root, opts, func(matrix int32) harness.RunnerFunc {
		return w.tracedRunner(rec, matrix)
	})
	if err != nil {
		return 0, 0, err
	}
	return w.total, len(w.last.Failures), nil
}

// tracedRunner gives each matrix caller its own farm.Client, whose
// transport times the caller's requests, and runs each cell through
// tracedFarmCell in a span.
func (w *farmResume) tracedRunner(rec *recorder, matrix int32) harness.RunnerFunc {
	// Each concurrent caller holds its own lane, 1..n, for one call; the
	// matrix never has more than Parallelism calls in flight.
	n := w.opts.Parallelism
	lanes := make(chan int, n)
	clients := make([]*farm.Client, n+1)
	cells := make([]int32, n+1)
	for lane := 1; lane <= n; lane++ {
		lanes <- lane
		clients[lane] = farm.NewClient(w.srv.addr)
		clients[lane].HTTP.Transport = &laneTransport{inner: http.DefaultTransport, rec: rec, lane: lane, cell: &cells[lane]}
	}
	return func(p harness.RunParams) (*harness.RunResult, *harness.RunFailure, bool) {
		lane := <-lanes
		defer func() { lanes <- lane }()
		cell := rec.begin("harness.runner", "", lane, matrix)
		defer rec.end(cell)
		cells[lane] = cell
		key := timedKey(rec, p, lane, cell)
		return tracedFarmCell(rec, clients[lane], p, key, lane, cell)
	}
}

// tracedFarmCell is Client.Runner's own composition — submit, wait, decode —
// with the client's decode of the result timed where it happens.
func tracedFarmCell(rec *recorder, c *farm.Client, p harness.RunParams, key string, lane int, cell int32) (*harness.RunResult, *harness.RunFailure, bool) {
	st, err := c.Submit(farm.SpecOf(p))
	if err != nil {
		return nil, runFailure(p, "farm submit: %v", err), false
	}
	if st, err = c.Wait(st.Key); err != nil {
		return nil, runFailure(p, "farm wait: %v", err), false
	}
	switch st.State {
	case farm.StateDone:
		id := rec.begin("harness.decode", key, lane, cell)
		r, err := harness.DecodeCacheRecord(st.Result)
		rec.end(id)
		if err != nil {
			return nil, runFailure(p, "farm result: %v", err), false
		}
		return &harness.RunResult{Params: p, Stats: r.Stats, Dir: r.Dir, Energy: r.Energy, Faults: r.Faults, Watch: r.Watch}, nil, st.CacheHit
	case farm.StateQuarantined:
		return nil, runFailure(p, "farm quarantined after %d attempts: %s", st.Attempts, st.Failure), false
	default:
		return nil, runFailure(p, "farm: %s", st.Failure), false
	}
}

func (w *farmResume) verify() (passCheck, error) {
	var c passCheck
	c.farm = w.srv.fs.Stats()
	quarantined := len(w.srv.fs.Quarantine())
	err := w.srv.stop()
	w.srv = nil
	if err != nil {
		return c, fmt.Errorf("stop farm: %w", err)
	}
	defer os.RemoveAll(w.cur)
	csv, err := matrixCSV(w.last)
	if err != nil {
		return c, err
	}
	switch {
	case quarantined > 0:
		return c, fmt.Errorf("%d jobs quarantined", quarantined)
	case !bytes.Equal(csv, w.want):
		return c, errors.New("farm CSV differs from the local sweep's")
	case w.last.CacheHits != w.hits:
		return c, fmt.Errorf("%d cache hits, the seeded store holds %d of the cells", w.last.CacheHits, w.hits)
	}
	c.counts, err = readBack(w.cur, w.opts)
	return c, err
}

func (w *farmResume) close() {
	if w.srv != nil {
		w.srv.stop()
	}
	os.RemoveAll(w.dir)
}
