// Command perfbench is the repository's benchmark. It runs one workload as
// whole timed passes through the program's public entry points
// (harness.Run, harness.RunMatrix, farm.Client.Runner), checks every pass's
// outputs, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with nothing
// wrapped. With -trace 1 untraced and traced passes alternate, and the
// metrics are the per-layer ones, taken from spans the benchmark records
// around its calls into each layer. Any failed check exits 1. See NOTES.md.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper-run --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
)

const (
	// minPasses is the fewest passes of each kind an invocation makes,
	// however short --seconds is.
	minPasses = 3
	// hangAllowance is how long an invocation may run beyond --seconds
	// before it is taken to hang: time for the last set-up and pass to end.
	hangAllowance = 120 * time.Second
	// outDir holds the benchmark's build, scratch stores, span files and
	// the count records that tie invocations of one seed together.
	outDir = ".bench_build/perfbench"
)

func main() {
	name := flag.String("workload", "", "workload: paper-run, sweep-cold or farm-resume")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "how long the timed passes run, in seconds")
	traced := flag.Int("trace", 0, "1 = alternate traced and untraced passes and report per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	os.Exit(run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1))
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is the process state read between passes.
type sample struct {
	wall  time.Time
	cpu   time.Duration // user+sys, all threads
	mem   runtime.MemStats
	gcCPU float64 // seconds, from runtime/metrics
	// busy and steal are the machine's CPU ticks from /proc/stat: time
	// spent running, and time the hypervisor gave a ready vCPU to others.
	busy, steal uint64
}

func takeSample() (sample, error) {
	var s sample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var err error
	if s.busy, s.steal, err = hostTicks(); err != nil {
		return s, err
	}
	runtime.ReadMemStats(&s.mem)
	m := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(m)
	if m[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = m[0].Value.Float64()
	}
	s.wall = time.Now()
	return s, nil
}

// hostTicks returns the machine's busy and steal CPU ticks so far.
func hostTicks() (busy, steal uint64, err error) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range t {
		if t[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
	}
	return t[0] + t[1] + t[2] + t[5] + t[6], t[7], nil
}

// passStats collects per-pass values by metric name.
type passStats map[string][]float64

func (p passStats) add(name string, v float64) { p[name] = append(p[name], v) }

func run(name string, seed uint64, budget time.Duration, traced bool) int {
	res := result{Correct: true, Metrics: map[string]metric{}}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
		printResult(res)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	// A hung pass must not outlive the time an invocation is allowed.
	hangLimit := budget + hangAllowance
	watchdog := time.AfterFunc(hangLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %s\n", hangLimit)
		os.RemoveAll(work)
		os.Exit(1)
	})
	defer watchdog.Stop()

	// setUp replaces the workload with a freshly set-up one and times it.
	// A single set-up of 1-2 s varies by about a tenth with the host, so an
	// untraced invocation sets up before every pass and reports the median:
	// set-up then has as many samples as the passes, spread over the same
	// time.
	var setups []float64
	var b bench
	defer func() {
		if b != nil {
			b.close()
		}
	}()
	setUp := func() error {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC()
		t0 := time.Now()
		nb, err := newBench(name, seed, filepath.Join(work, fmt.Sprintf("setup%d", len(setups))))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
		return nil
	}

	plain, layer := passStats{}, passStats{}
	var first *counts
	var spanPasses [][]span
	var busy, steal uint64 // machine CPU ticks over the untraced passes
	start := time.Now()
	for i := 0; ; i++ {
		var rec *recorder
		if traced && i%2 == 1 {
			rec = newRecorder()
		}
		// A traced invocation sets up once: its passes alternate and
		// prepare(rec) readies each for its recorder.
		var err error
		if i == 0 || !traced {
			err = setUp()
		} else {
			err = b.prepare(rec)
		}
		if err != nil {
			return fail(err)
		}
		// A collection here keeps garbage from set-up or the previous pass
		// from being paid for inside this one, and returning the freed
		// memory to the system starts the pass's peak RSS from what is live.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return fail(err)
		}
		before, err := takeSample()
		if err != nil {
			return fail(err)
		}
		root := noParent
		if rec != nil {
			root = rec.begin("bench.pass", "", 0, noParent)
		}
		attempted, failed, err := b.pass(rec, root)
		if rec != nil {
			rec.end(root)
		}
		after, serr := takeSample()
		if err == nil {
			err = serr
		}
		if err != nil {
			return fail(err)
		}
		peak, err := peakRSS()
		if err != nil {
			return fail(err)
		}
		res.Attempted += attempted
		res.Failed += failed
		if failed > 0 {
			return fail(fmt.Errorf("pass %d: %d of %d runs failed", i, failed, attempted))
		}
		chk, err := b.verify()
		if err != nil {
			return fail(fmt.Errorf("pass %d: %w", i, err))
		}
		if rec != nil {
			chk.counts.Events = rec.events
		}
		if first == nil {
			first = &chk.counts
		}
		if err := first.same(chk.counts); err != nil {
			return fail(fmt.Errorf("pass %d: deterministic counts differ from pass 0: %w", i, err))
		}
		if first.Events == 0 {
			first.Events = chk.counts.Events
		}
		wall := after.wall.Sub(before.wall).Seconds()
		cpu := (after.cpu - before.cpu).Seconds()
		if rec == nil {
			plain.add("pass_s", wall)
			plain.add("pass_cpu_s", cpu)
			plain.add("peak_rss_mb", peak)
			steal += after.steal - before.steal
			busy += after.busy - before.busy
			runs := float64(chk.counts.Runs)
			plain.add("go.mallocs_per_run", float64(after.mem.Mallocs-before.mem.Mallocs)/runs)
			plain.add("go.alloc_mb_per_pass", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1e6)
			plain.add("go.gc_cycles_per_pass", float64(after.mem.NumGC-before.mem.NumGC))
			plain.add("go.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, cpu))
		} else {
			layer.add("pass_s", wall)
			spans := rec.spans
			self := selfTimes(spans)
			// Self times are integers summed from the same clock readings,
			// so only a broken span tree leaves a gap.
			if err := checkAccounting(spans, self, int64(len(spans))); err != nil {
				return fail(fmt.Errorf("pass %d: span accounting: %w", i, err))
			}
			layerValues(layer, rec, self, chk)
			spanPasses = append(spanPasses, spans)
		}
		done := len(plain["pass_s"]) >= minPasses && (!traced || len(layer["pass_s"]) >= minPasses)
		if done && time.Since(start) >= budget {
			break
		}
	}

	if err := checkAcrossInvocations(name, seed, *first); err != nil {
		return fail(err)
	}
	failedFrac := ratio(float64(res.Failed), float64(res.Attempted))
	stealFrac := ratio(float64(steal), float64(busy+steal))

	fmt.Printf("perfbench %s seed=%d: %d untraced passes, %d traced, %d runs attempted\n",
		name, seed, len(plain["pass_s"]), len(layer["pass_s"]), res.Attempted)
	if !traced {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["pass_s"] = metric{median(plain["pass_s"]), "s"}
		res.Metrics["pass_cpu_s"] = metric{median(plain["pass_cpu_s"]), "s"}
		res.Metrics["peak_rss_mb"] = metric{median(plain["peak_rss_mb"]), "MB"}
		printSpread("setup_s", "s", setups)
		printSpread("pass_s", "s", plain["pass_s"])
		printSpread("pass_cpu_s", "s", plain["pass_cpu_s"])
		printSpread("peak_rss_mb", "MB", plain["peak_rss_mb"])
	} else {
		res.Metrics = perLayer(layer, plain, *first)
		res.Metrics["bench.failed_frac"] = metric{failedFrac, "ratio"}
		res.Metrics["bench.host_steal_frac"] = metric{stealFrac, "ratio"}
		for _, n := range sortedNames(res.Metrics) {
			fmt.Printf("  %-30s %g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := writeSpanFile(path, spanPasses); err != nil {
			return fail(err)
		}
		fmt.Printf("  spans of %d traced passes written to %s\n", len(spanPasses), path)
	}
	fmt.Printf("  %-12s %g ratio (%d of %d failed)\n", "failed_frac", failedFrac, res.Failed, res.Attempted)
	fmt.Printf("  %-12s %.4f ratio (machine CPU time the hypervisor took during the untraced passes)\n", "host_steal", stealFrac)
	printResult(res)
	return 0
}

// resetPeakRSS restarts the kernel's resident high-water mark from the
// current resident size, so that each pass's peak is read on its own.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS returns the resident high-water mark in MB.
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kib * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func printSpread(name, unit string, xs []float64) {
	q1, _, q3 := quartiles(xs)
	fmt.Printf("  %-12s %.4f %s (median of %d; quartiles %.4f..%.4f)\n",
		name, median(xs), unit, len(xs), q1, q3)
}

func printResult(res result) {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counts are the deterministic work counts of one pass, summed over the
// runs it returned. A change that only touches the host side leaves all of
// them identical.
type counts struct {
	// Events counts the engine events of the runs a traced pass simulated
	// itself; it is 0 for untraced passes, which cannot see the engine.
	Events        uint64
	Runs          uint64
	Cycles        uint64
	Instr         uint64
	AbortedInstr  uint64
	Commits       uint64
	Aborts        uint64
	CommitsByMode [stats.NumCommitModes]uint64
	DirTxns       uint64 // reads + writes + locks + unlocks
	Nacks         uint64
	Invalidations uint64
}

// same reports how c2 differs from c; Events is compared only when both
// passes were traced.
func (c counts) same(c2 counts) error {
	if c.Events == 0 || c2.Events == 0 {
		c.Events, c2.Events = 0, 0
	}
	if c != c2 {
		return fmt.Errorf("\n%+v\n%+v", c, c2)
	}
	return nil
}

func (c *counts) add(r *harness.RunResult) {
	s := r.Stats
	c.Runs++
	c.Cycles += uint64(s.Cycles)
	c.Instr += s.Instructions
	c.AbortedInstr += s.AbortedInstructions
	c.Commits += s.Commits
	c.Aborts += s.Aborts
	for m, n := range s.CommitsByMode {
		c.CommitsByMode[m] += n
	}
	c.DirTxns += r.Dir.Reads + r.Dir.Writes + r.Dir.Locks + r.Dir.Unlocks
	c.Nacks += r.Dir.Nacks
	c.Invalidations += r.Dir.Invalidations
}

// checkAcrossInvocations compares c with the counts an earlier invocation of
// the same binary recorded for this workload and seed, or records them.
func checkAcrossInvocations(name string, seed uint64, c counts) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	dir := filepath.Join(outDir, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", hex.EncodeToString(h.Sum(nil))[:16], name, seed))
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		data, err = json.Marshal(c)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return err
	}
	var prev counts
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := prev.same(c); err != nil {
		return fmt.Errorf("deterministic counts differ from an earlier invocation of seed %d: %w", seed, err)
	}
	if prev.Events == 0 && c.Events != 0 {
		// Keep the engine event count of the first traced invocation.
		data, err = json.Marshal(c)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	return nil
}

// layerValues adds the per-layer values of one traced pass to layer.
func layerValues(layer passStats, rec *recorder, self []int64, chk passCheck) {
	type agg struct {
		n         int
		dur, self int64
		durs      []float64
	}
	by := map[string]*agg{}
	for i, s := range rec.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.dur += s.End - s.Start
		a.self += self[i]
		a.durs = append(a.durs, float64(s.End-s.Start))
	}
	get := func(name string) *agg {
		if a := by[name]; a != nil {
			return a
		}
		return &agg{}
	}
	mean := func(name string, unit float64) float64 {
		a := get(name)
		return ratio(float64(a.dur), float64(a.n)) / unit
	}
	const us, ms = 1e3, 1e6
	layer.add("workload.setup_ms", mean("workload.setup", ms))
	layer.add("workload.verify_ms", mean("workload.verify", ms))
	layer.add("cpu.build_ms", mean("cpu.build", ms))
	layer.add("cpu.run_ms", mean("cpu.run", ms))
	run := float64(get("cpu.run").dur)
	layer.add("sim.events", float64(rec.events))
	layer.add("sim.ns_per_event", ratio(run, float64(rec.events)))
	layer.add("cpu.ns_per_instr", ratio(run, float64(rec.instr)))
	layer.add("runstore.key_us", mean("runstore.key", us))
	layer.add("runstore.get_us", mean("runstore.get", us))
	layer.add("runstore.put_us", mean("runstore.put", us))
	gets := float64(get("runstore.get").n)
	layer.add("runstore.gets", gets)
	layer.add("runstore.puts", float64(get("runstore.put").n))
	layer.add("runstore.hit_ratio", ratio(float64(len(rec.hits)), gets))
	layer.add("harness.decode_us", mean("harness.decode", us))

	// The farm server re-encodes every hit it serves, inside the server
	// where no span reaches. That call is replayed after the pass on each
	// served record, with the cell's own parameters.
	if e := get("harness.encode"); e.n > 0 {
		layer.add("harness.encode_us", mean("harness.encode", us))
	} else {
		var enc []float64
		for _, h := range rec.hits {
			r, err := harness.DecodeCacheRecord(h.payload)
			if err != nil {
				continue
			}
			res := &harness.RunResult{Params: rec.params[h.key], Stats: r.Stats, Dir: r.Dir, Energy: r.Energy, Faults: r.Faults, Watch: r.Watch}
			t0 := time.Now()
			if _, err := harness.EncodeCacheRecord(res); err == nil {
				enc = append(enc, float64(time.Since(t0)))
			}
		}
		layer.add("harness.encode_us", meanOf(enc)/us)
	}

	runner := get("harness.runner")
	lanes := map[int]bool{}
	for _, s := range rec.spans {
		if s.Name == "harness.runner" {
			lanes[s.Lane] = true
		}
	}
	layer.add("harness.matrix_overhead_ms", (float64(get("harness.matrix").dur)-ratio(float64(runner.dur), float64(len(lanes))))/ms)

	// Farm client and server. The runner's self time is the cell's latency
	// outside its HTTP requests and its timed key and decode: poll sleeps,
	// plus encoding the submission.
	requests := append(append([]float64(nil), get("farm.http").durs...), get("farm.poll").durs...)
	var farmCells float64
	var cellDurs []float64
	if len(requests) > 0 {
		farmCells, cellDurs = float64(runner.n), runner.durs
	}
	layer.add("farm.cell_ms_p50", zeroNaN(percentile(cellDurs, 0.50))/ms)
	layer.add("farm.cell_ms_p97", zeroNaN(percentile(cellDurs, 0.97))/ms)
	layer.add("farm.http_us_p50", zeroNaN(percentile(requests, 0.50))/us)
	layer.add("farm.requests_per_cell", ratio(float64(len(requests)), farmCells))
	layer.add("farm.poll_sleep_ms_per_cell", ratio(float64(runner.self), farmCells)/ms)
	layer.add("farm.useful_poll_ratio", ratio(farmCells, float64(get("farm.poll").n)))
	layer.add("farm.exec_ms", mean("farm.exec", ms))
	layer.add("farm.executed", float64(chk.farm.Executed))
	layer.add("farm.cache_hits", float64(chk.farm.CacheHits))
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func zeroNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// perLayer turns the traced invocation's per-pass values into the reported
// per-layer metrics: medians over passes, the counts of one pass, and the
// tracing overhead.
func perLayer(layer, plain passStats, c counts) map[string]metric {
	units := map[string]string{
		"workload.setup_ms": "ms", "workload.verify_ms": "ms", "cpu.build_ms": "ms", "cpu.run_ms": "ms",
		"sim.events": "count", "sim.ns_per_event": "ns", "cpu.ns_per_instr": "ns",
		"runstore.key_us": "us", "runstore.get_us": "us", "runstore.put_us": "us",
		"runstore.gets": "count", "runstore.puts": "count", "runstore.hit_ratio": "ratio",
		"harness.decode_us": "us", "harness.encode_us": "us", "harness.matrix_overhead_ms": "ms",
		"farm.cell_ms_p50": "ms", "farm.cell_ms_p97": "ms", "farm.http_us_p50": "us",
		"farm.requests_per_cell": "count", "farm.poll_sleep_ms_per_cell": "ms",
		"farm.useful_poll_ratio": "ratio", "farm.exec_ms": "ms",
		"farm.executed": "count", "farm.cache_hits": "count",
		"go.mallocs_per_run": "count", "go.alloc_mb_per_pass": "MB",
		"go.gc_cycles_per_pass": "count", "go.gc_cpu_frac": "ratio",
	}
	out := map[string]metric{}
	for name, unit := range units {
		xs := layer[name]
		if len(xs) == 0 {
			xs = plain[name]
		}
		out[name] = metric{median(xs), unit}
	}
	commits := float64(c.Commits)
	out["sim.mcycles"] = metric{float64(c.Cycles) / 1e6, "Mcycles"}
	out["cpu.minstr"] = metric{float64(c.Instr) / 1e6, "Minstr"}
	out["cpu.aborted_minstr"] = metric{float64(c.AbortedInstr) / 1e6, "Minstr"}
	out["cpu.useful_instr_ratio"] = metric{ratio(float64(c.Instr), float64(c.Instr+c.AbortedInstr)), "ratio"}
	out["htm.aborts_per_commit"] = metric{ratio(float64(c.Aborts), commits), "ratio"}
	for m, n := range []string{"spec", "scl", "nscl", "fallback"} {
		out["htm.commit_"+n+"_frac"] = metric{ratio(float64(c.CommitsByMode[m]), commits), "ratio"}
	}
	out["coherence.ktxns"] = metric{float64(c.DirTxns) / 1e3, "ktxns"}
	out["coherence.nacks"] = metric{float64(c.Nacks), "count"}
	out["coherence.invalidations"] = metric{float64(c.Invalidations), "count"}
	out["bench.span_overhead_ratio"] = metric{ratio(median(layer["pass_s"]), median(plain["pass_s"])), "ratio"}
	return out
}

// sortedNames lists m's keys in order, for stable printing.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
