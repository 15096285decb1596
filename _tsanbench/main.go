// Command tsanbench is the repository's benchmark: record, replay and hunt
// cost end to end on three workloads, with per-layer probes and an
// attribution of each workload's wall time to the layers.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	tsanbench --workload netload|hunt|parsec|all --seed N --seconds S --trace 0|1
//	tsanbench --design
//
// With --trace 0 it runs untraced units of the workload for --seconds and
// prints the end-to-end metrics; with --trace 1 it runs the same untraced
// units, then one traced unit (obs.Tracer and obs.Metrics attached, spans
// around every call into a layer), the per-layer probes at the workload's
// shape, the cross-checks between independent counts, the attribution and
// the ROADMAP gap report, and prints the per-layer metrics. The last line
// of standard output is one JSON object: correct, attempted, failed,
// metrics. A failed check counts one failed unit; it never aborts the run.
//
// Seed 4242 is held out: do not tune against it, keep it for confirming a
// claimed gain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/demo"
)

// workloadSpec names a workload and records why it is in the benchmark.
type workloadSpec struct {
	name      string
	why       string
	exercises []string
	bypasses  []string
	new       func(c *config) workload
}

var workloads = []workloadSpec{
	{
		name:      "netload",
		why:       "the paper's server deployment (§5.2, Table 2): one long streamed recording whose cost sits in env (epoll, virtual time, sockets) and the SYSCALL stream",
		exercises: []string{"env", "demo (one long stream, SYSCALL replay)", "core syscalls", "sched"},
		bypasses:  []string{"explore", "tsan (few shared accesses)"},
		new:       newNetload,
	},
	{
		name:      "hunt",
		why:       "racehunt -mutate -record-dir on needle: thousands of sub-millisecond trials, so fixed per-run costs dominate (core.New, Run, stream open/fsync/read-back, mutation)",
		exercises: []string{"explore", "core run set-up", "demo (many short streams, mutation, tolerant replay)", "sched (random strategy)", "tsan atomics"},
		bypasses:  []string{"env", "virtual time"},
		new:       newHunt,
	},
	{
		name:      "parsec",
		why:       "Tables 3/4: five PARSEC-model kernels native, queue, queue+rec in memory and replayed; dense handoffs, mutex edges and QUEUE stream traffic",
		exercises: []string{"sched (handoffs)", "tsan (mutex edges)", "demo (in-memory QUEUE stream, replay cursor)", "core"},
		bypasses:  []string{"env", "explore", "streaming"},
		new:       newParsec,
	},
}

// workload is one benchmark workload. setup is timed for setup_s and may
// be called several times; unit runs one round (traced when tr is non-nil).
type workload interface {
	setup() error
	unit(k int, tr *tracing) unitOut
	shape() shape
	close()
}

// finisher is implemented by workloads with a check that spans the whole
// run rather than one unit.
type finisher interface{ finish(u *unitOut) }

// unitOut is one round of a workload.
type unitOut struct {
	native, plain, record, replay time.Duration
	recordCPU                     time.Duration
	demoBytes                     float64
	work                          float64 // trials, connections or kernel runs recorded
	failures                      []string
}

func (u *unitOut) fail(format string, args ...any) {
	u.failures = append(u.failures, fmt.Sprintf(format, args...))
}

func (u *unitOut) wall() time.Duration { return u.native + u.plain + u.record + u.replay }

// sizes scale a run; tiny is the self-test size.
type sizes struct {
	conns  int // netload connections per scenario
	trials int // hunt trials per sweep
	scale  int // parsec kernel scale
	probe  int // probe iteration multiplier
	setups int // set-ups per run, for the median setup_s
}

var (
	fullSize = sizes{conns: 200, trials: 1000, scale: 10, probe: 20, setups: 9}
	tinySize = sizes{conns: 10, trials: 60, scale: 1, probe: 1, setups: 2}
)

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string
	inject  string
	size    sizes
	procs   int
}

// corrupt applies the --inject fault to a demo about to be replayed: the
// recording is cut short, so a strict replay must desynchronise.
func (c *config) corrupt(d *demo.Demo) *demo.Demo {
	if c.inject != "corrupt-demo" || d.FinalTick < 2 {
		return d
	}
	bad := d.Clone()
	bad.FinalTick /= 2
	if uint64(len(bad.Queue.Ticks)) > bad.FinalTick {
		bad.Queue.Ticks = bad.Queue.Ticks[:bad.FinalTick]
	}
	bad.OutputHash ^= 1
	return bad
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsanbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "netload, hunt, parsec or all")
	seed := fs.Uint64("seed", 1, "workload seed; inputs are a pure function of it (4242 is held out)")
	seconds := fs.Float64("seconds", 10, "how long the untraced units run")
	trace := fs.Int("trace", 0, "1 adds the traced pass and prints per-layer metrics instead of end-to-end ones")
	out := fs.String("out", filepath.Join(".bench_build", "tsanbench"), "directory for temporary recordings and span dumps")
	inject := fs.String("inject", "", "fault to inject: corrupt-demo hands every replay a damaged recording")
	tiny := fs.Bool("tiny", false, "run at the self-test size")
	design := fs.Bool("design", false, "print the metric, layer and workload map and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *design {
		printDesign(stdout)
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "tsanbench: --trace must be 0 or 1")
		return 2
	}
	if *inject != "" && *inject != "corrupt-demo" {
		fmt.Fprintf(stderr, "tsanbench: unknown fault %q\n", *inject)
		return 2
	}
	var specs []workloadSpec
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			specs = append(specs, w)
		}
	}
	if len(specs) == 0 {
		fmt.Fprintf(stderr, "tsanbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "tsanbench:", err)
		return 1
	}
	c := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *out, inject: *inject, size: fullSize, procs: runtime.NumCPU()}
	if *tiny {
		c.size = tinySize
	}

	final := runResult{Correct: true, Metrics: map[string]metricValue{}}
	for _, spec := range specs {
		r := runWorkload(c, spec, stdout)
		if len(specs) == 1 {
			final = r
			break
		}
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for k, v := range r.Metrics {
			final.Metrics[spec.name+"."+k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "tsanbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runResult is the benchmark's last output line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWorkload sets the workload up, runs its untraced units for the
// configured time, then (with --trace 1) the traced pass, and reports.
// Every set-up, unit, run-wide check and traced pass is one attempt; an
// attempt with any failed check is one failure.
func runWorkload(c *config, spec workloadSpec, out io.Writer) runResult {
	fmt.Fprintf(out, "== %s (seed %d, %d procs): %s\n", spec.name, c.seed, c.procs, spec.why)
	w := spec.new(c)
	defer w.close()
	var failures []string
	attempted, failed := 0, 0
	check := func(what string, errs []string) {
		attempted++
		if len(errs) > 0 {
			failed++
			failures = append(failures, what+": "+strings.Join(errs, "; "))
		}
	}

	var setup sample
	for i := 0; i < c.size.setups; i++ {
		t0 := time.Now()
		err := w.setup()
		setup.Add(time.Since(t0).Seconds())
		var errs []string
		if err != nil {
			errs = append(errs, err.Error())
		}
		check(fmt.Sprintf("setup %d", i), errs)
	}

	var record, cpu, replay, plain, native, overhead, bytes, rate, alloc, unitWall sample
	var ms runtime.MemStats
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for k := 0; k < 3 || time.Now().Before(deadline); k++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		u := w.unit(k, nil)
		runtime.ReadMemStats(&ms)
		check(fmt.Sprintf("unit %d", k), u.failures)
		if len(u.failures) > 0 {
			continue
		}
		record.Add(u.record.Seconds())
		cpu.Add(u.recordCPU.Seconds())
		replay.Add(u.replay.Seconds())
		plain.Add(u.plain.Seconds())
		native.Add(u.native.Seconds())
		overhead.Add(u.record.Seconds() / u.native.Seconds())
		bytes.Add(u.demoBytes)
		rate.Add(u.work / u.record.Seconds())
		alloc.Add(float64(ms.TotalAlloc-before) / 1e6)
		unitWall.Add(u.wall().Seconds())
	}
	if f, ok := w.(finisher); ok {
		var u unitOut
		f.finish(&u)
		check("run", u.failures)
	}

	e2e := map[string]*sample{
		"setup_s": &setup, "record_s": &record, "record_cpu_s": &cpu, "replay_s": &replay,
		"plain_s": &plain, "native_s": &native, "overhead_x": &overhead, "demo_bytes": &bytes,
		"trials_per_s": &rate, "alloc_mb": &alloc,
	}
	res := newResult(endToEnd)
	if c.trace {
		res = newResult(perLayer)
	}
	for _, d := range endToEnd {
		s := e2e[d.Name]
		if !c.trace {
			res.emit(d.Name, s.median())
		}
		fmt.Fprintf(out, "  %-14s %s\n", d.Name, s.describe(d.Unit))
	}

	if c.trace {
		check("traced pass", tracedPass(c, spec, w, unitWall.median(), res, out))
	}
	fmt.Fprintf(out, "  %-14s %d/%d attempts\n", "failed_share", failed, attempted)

	for _, f := range failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	for _, e := range res.errs {
		fmt.Fprintf(out, "  BENCHMARK BUG: %s\n", e)
	}
	missing := res.missing()
	if len(missing) > 0 {
		fmt.Fprintf(out, "  BENCHMARK BUG: metrics not emitted: %s\n", strings.Join(missing, ", "))
	}
	return runResult{
		Correct:   failed == 0 && len(res.errs) == 0 && len(missing) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   res.metrics,
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
