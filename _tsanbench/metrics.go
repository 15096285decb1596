package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// metricDef is one row of the benchmark's design map: a metric, its unit,
// the layer it measures and what it is expected to move. The end-to-end
// rows mirror BENCHMARK.json; the per-layer rows are what the traced pass
// prints. Every row is emitted by every workload, so a metric that one
// workload does not exercise is defined for it in Means.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Layer  string
	Means  string
	Moves  string
}

// endToEnd are the untraced metrics, in BENCHMARK.json order. A unit is
// one round of the workload: netload drives one scenario in each mode,
// hunt runs one exploration sweep, parsec runs the five kernels in each
// mode.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "all", "median wall time of one set-up: temp dirs, inputs, first world and runtime, warm-up round", ""},
	{"record_s", "s", "lower", "all", "median wall time of the recorded part of a unit: netload queue+rec streamed; hunt the sweep streaming every fresh trial; parsec the five kernels under queue+rec in memory", ""},
	{"record_cpu_s", "s", "lower", "all", "process CPU time (user+sys) over the recorded part of a unit", ""},
	{"replay_s", "s", "lower", "all", "median wall time to strict-replay the unit's recordings: netload the scenario's file read back and replayed five times; hunt every minimized failure; parsec the five kernels", ""},
	{"plain_s", "s", "lower", "all", "the recorded part repeated without the recording under test: netload and parsec run queue with recording off; hunt runs the same sweep recording in memory instead of streaming", ""},
	{"native_s", "s", "lower", "all", "the same programs uncontrolled and uninstrumented (mode native): netload the scenario, hunt one needle run per trial of the sweep, parsec the five kernels on one Go P, so the baseline does not hinge on how much parallelism a shared host lends", ""},
	{"overhead_x", "ratio", "lower", "all", "record_s / native_s per unit, the Table 4 figure; base native_s", ""},
	{"demo_bytes", "B", "lower", "all", "mean encoded size of one recording: netload one scenario, hunt one kept failure, parsec one kernel", ""},
	{"trials_per_s", "1/s", "higher", "all", "recorded work per wall second of record_s: hunt trials, netload connections, parsec kernel runs", ""},
	{"alloc_mb", "MB", "lower", "all", "Go heap allocated during one unit", ""},
}

// perLayer are the traced-pass metrics. Probes time a layer's public
// calls from outside, at the workload's shape (thread count, strategy,
// record mode, demo size); counts come from the traced unit.
var perLayer = []metricDef{
	{"sched.self_tick_ns", "ns", "lower", "sched", "Scheduler.Wait+Tick by one thread while the others are parked", "plain_s on parsec"},
	{"sched.handoff_ns", "ns", "lower", "sched", "Wait+Tick alternating between two runnable goroutines, per thread switch", "plain_s, replay_s on parsec; trials_per_s on hunt"},
	{"sched.ticks", "count", "lower", "sched", "Report.Ticks over the traced unit's controlled runs", "denominator of every per-op figure"},
	{"tsan.access_ns", "ns", "lower", "tsan", "OnRead+OnWrite on one Shadow in a detector with the workload's thread count", "record_s on parsec (small share)"},
	{"tsan.atomic_pair_ns", "ns", "lower", "tsan", "release Store + acquire Load across two threads", "trials_per_s on hunt"},
	{"tsan.mutex_edge_ns", "ns", "lower", "tsan", "AcquireSnapshot+ReleaseSnapshot, alternating threads", "plain_s on parsec"},
	{"tsan.races", "count", "lower", "tsan", "distinct races in the traced unit's recordings (replays must match)", "none"},
	{"demo.note_schedule_ns", "ns", "lower", "demo", "in-memory per-tick recorder call of the workload's strategy (NoteSchedule for queue, NoteTick for random)", "record_s − plain_s on parsec"},
	{"demo.stream_note_ns", "ns", "lower", "demo", "the same call on a streaming recorder with the flusher running", "record_cpu_s on netload"},
	{"demo.add_syscall_ns", "ns", "lower", "demo", "AddSyscall of a netload-sized record on the workload's recorder kind", "record_cpu_s on netload"},
	{"demo.stream_open_us", "us", "lower", "demo", "NewStreamingRecorder: create and header", "trials_per_s on hunt"},
	{"demo.stream_close_us", "us", "lower", "demo", "Close of a stream the size of one recording: final flush, fsync, close", "trials_per_s on hunt"},
	{"demo.stream_flush_us", "us", "lower", "demo", "one Flush of the window 25ms of the workload's recording fills", "record_cpu_s on netload"},
	{"demo.finish_us", "us", "lower", "demo", "in-memory Finish + Encode of a demo the size of one recording", "record_s on parsec"},
	{"demo.readfile_us", "us", "lower", "demo", "ReadFile of a v2 file the size of one recording", "trials_per_s on hunt; record_cpu_s on netload"},
	{"demo.bytes.queue", "B", "lower", "demo", "QUEUE section bytes of the traced unit's recordings", "demo_bytes"},
	{"demo.bytes.syscall", "B", "lower", "demo", "SYSCALL section bytes", "demo_bytes"},
	{"demo.bytes.signal", "B", "lower", "demo", "SIGNAL section bytes", "demo_bytes"},
	{"demo.bytes.async", "B", "lower", "demo", "ASYNC section bytes", "demo_bytes"},
	{"demo.bytes.header", "B", "lower", "demo", "header bytes", "demo_bytes"},
	{"demo.replayer_new_us", "us", "lower", "demo", "NewReplayer over the traced unit's recording", "replay_s"},
	{"demo.cursor_step_ns", "ns", "lower", "demo", "ScheduledAt+SignalsAt+AsyncsAt per recorded tick", "replay_s on parsec"},
	{"demo.next_syscall_ns", "ns", "lower", "demo", "NextSyscall per record of a netload-sized SYSCALL stream", "replay_s on netload"},
	{"demo.mutate_us", "us", "lower", "demo", "MutateOnce on the traced unit's recording", "trials_per_s on hunt"},
	{"env.send_recv_ns", "ns", "lower", "env", "World.Send+Recv of a netload-sized message on a connected pipe", "record_cpu_s on netload"},
	{"env.epoll_wait_ns", "ns", "lower", "env", "EpollWait returning a 64-event batch", "record_cpu_s on netload"},
	{"env.connect_us", "us", "lower", "env", "ExternalConnect + Accept + Close", "record_cpu_s on netload"},
	{"env.vtime_wake_us", "us", "lower", "env", "SleepVirtual until wake on a quiescent world (advancer idle detection)", "record_s on netload"},
	{"core.new_us", "us", "lower", "core", "env.NewWorld + core.New with the workload's run Options (streaming excluded)", "trials_per_s on hunt; setup_s"},
	{"core.run_empty_us", "us", "lower", "core", "Run of a main that returns at once", "trials_per_s on hunt"},
	{"core.yield_pair_ns", "ns", "lower", "core", "two threads yielding alternately, per visible op", "plain_s on parsec"},
	{"core.mutex_pair_ns", "ns", "lower", "core", "two threads contending for one Mutex, per visible op", "plain_s on parsec"},
	{"core.syscall_rec_ns", "ns", "lower", "core", "Thread.Send+Recv on a pipe under the workload's recording strategy, per call", "record_cpu_s on netload"},
	{"core.syscall_replay_ns", "ns", "lower", "core", "the same calls under strict replay, per call", "replay_s on netload"},
	{"explore.trial_us", "us", "lower", "explore", "median Outcome.Duration over the traced unit's two sweeps (netload and parsec: one recorded run, what a trial of that program costs)", "trials_per_s on hunt"},
	{"explore.trials", "count", "higher", "explore", "trials run by the traced unit's two sweeps, in memory and streamed (0 outside hunt)", "trials_per_s on hunt"},
	{"explore.mutants", "count", "higher", "explore", "mutated trials in those sweeps", "trials_per_s on hunt"},
	{"explore.diverged", "count", "lower", "explore", "mutated trials that left their candidate schedule", "trials_per_s on hunt"},
	{"explore.mutant_feasible", "ratio", "higher", "explore", "1 − diverged/mutants: useful mutants over attempts (0 without mutants)", "trials_per_s on hunt"},
	{"explore.trials_to_deep", "count", "lower", "explore", "trials, counted across the run's sweeps, up to the first needle.deep failure (0 outside hunt)", "time to bug on hunt"},
	{"explore.minimize_replays", "count", "lower", "explore", "replays spent by the minimizer in those sweeps", "trials_per_s on hunt"},
	{"obs.trace_overhead_pct", "%", "lower", "obs", "traced unit wall over the untraced median unit wall, minus 100", "none (guard)"},
	{"attrib.sched_pct", "%", "lower", "attrib", "visible ops × sched.self_tick_ns, plus the traced share of them that switched threads × (handoff − self tick)", "explains the unit's wall time"},
	{"attrib.tsan_pct", "%", "lower", "attrib", "mutex ops × mutex edge + atomic ops × half a pair + visible ops × access", "explains the unit's wall time"},
	{"attrib.demo_pct", "%", "lower", "attrib", "recorder, stream, replayer and mutation calls × their probes", "explains the unit's wall time"},
	{"attrib.env_pct", "%", "lower", "attrib", "live syscalls, epoll batches, connections and virtual-time wakes × their probes", "explains the unit's wall time"},
	{"attrib.core_pct", "%", "lower", "attrib", "runtimes × (new + empty run) + visible ops × (yield pair − handoff)", "explains the unit's wall time"},
	{"attrib.explore_pct", "%", "lower", "attrib", "explore.Run self time: sweep wall not covered by trials", "explains the unit's wall time"},
	{"attrib.unexplained_pct", "%", "lower", "attrib", "100 minus the layer shares", "the next thing to explain"},
	{"gap.stream_delta_us", "us", "lower", "gap", "ROADMAP gap 1: streamed minus in-memory needle trial, per trial", "trials_per_s on hunt"},
	{"gap.stream_probes_us", "us", "lower", "gap", "stream open + close + read-back at that trial size", "trials_per_s on hunt"},
	{"gap.stream_remainder_us", "us", "lower", "gap", "delta minus probes: what gap 1 leaves unexplained", "trials_per_s on hunt"},
	{"gap.tick_ns", "ns", "lower", "gap", "ROADMAP gap 2: fluidanimate under queue at parsec's shape, wall per visible op", "plain_s on parsec"},
	{"gap.tick_probes_ns", "ns", "lower", "gap", "sched.handoff_ns + tsan.mutex_edge_ns at that shape", "plain_s on parsec"},
	{"gap.tick_remainder_ns", "ns", "lower", "gap", "per-tick cost minus probes: what gap 2 leaves unexplained", "plain_s on parsec"},
}

// metricValue is one emitted metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects one run's metrics. Emitting a name twice, or a name
// missing from the catalog, is a benchmark bug and is recorded as one.
type result struct {
	defs    map[string]metricDef
	metrics map[string]metricValue
	errs    []string
}

func newResult(defs []metricDef) *result {
	r := &result{defs: make(map[string]metricDef), metrics: make(map[string]metricValue)}
	for _, d := range defs {
		r.defs[d.Name] = d
	}
	return r
}

func (r *result) emit(name string, v float64) {
	d, ok := r.defs[name]
	switch {
	case !ok:
		r.errs = append(r.errs, "metric not in the catalog: "+name)
	case r.has(name):
		r.errs = append(r.errs, "metric emitted twice: "+name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		r.errs = append(r.errs, fmt.Sprintf("metric %s is not a number: %v", name, v))
	default:
		r.metrics[name] = metricValue{Value: v, Unit: d.Unit}
	}
}

func (r *result) has(name string) bool {
	_, ok := r.metrics[name]
	return ok
}

// missing lists catalog metrics the run never emitted.
func (r *result) missing() []string {
	var out []string
	for name := range r.defs {
		if !r.has(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// sample is a set of per-unit or per-batch observations of one quantity.
type sample struct{ stats.Sample }

func (s *sample) median() float64 {
	if s.N() == 0 {
		return 0
	}
	return s.Median()
}

// tailPercentile is the highest of p90, p99 and p99.9 with at least ten
// samples beyond it; ok is false when there are fewer than 100 samples.
func (s *sample) tailPercentile() (p, v float64, ok bool) {
	for _, q := range []float64{99.9, 99, 90} {
		if float64(s.N())*(1-q/100) >= 10 {
			return q, s.Percentile(q), true
		}
	}
	return 0, 0, false
}

// describe renders a timing the way the report prints every timing: the
// median, the highest percentile with ten samples beyond it, and n.
func (s *sample) describe(unit string) string {
	out := fmt.Sprintf("median %s %s", fmtNum(s.median()), unit)
	if p, v, ok := s.tailPercentile(); ok {
		out += fmt.Sprintf(", p%g %s %s", p, fmtNum(v), unit)
	}
	return out + fmt.Sprintf(", n=%d", s.N())
}

func fmtNum(v float64) string {
	a := math.Abs(v)
	switch {
	case a == 0:
		return "0"
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// printDesign writes the metric → layer → workload map.
func printDesign(w io.Writer) {
	fmt.Fprintln(w, "end-to-end metrics (untraced passes, every workload):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-14s %-6s %-6s %s\n", d.Name, d.Unit, d.Better, d.Means)
	}
	fmt.Fprintln(w, "per-layer metrics (traced pass, every workload):")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-26s %-5s %-8s %s -> %s\n", d.Name, d.Unit, d.Layer, d.Means, d.Moves)
	}
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-8s %s\n", wl.name, wl.why)
		fmt.Fprintf(w, "  %-8s exercises %s; bypasses %s\n", "", strings.Join(wl.exercises, ", "), strings.Join(wl.bypasses, ", "))
	}
}
