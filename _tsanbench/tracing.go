package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/obs"
)

// span is one call the benchmark made into a layer. Trial spans come from
// Outcome.Duration, which carries no start time: they are laid end to end
// on one lane per explore worker from the sweep's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// counts are the traced unit's work counts, multiplied by probe costs to
// attribute the unit's wall time to layers.
type counts struct {
	runs           int    // runtimes built and run
	ticks          uint64 // visible ops over the controlled runs
	decisions      int    // traced scheduling decisions
	switches       int    // decisions that changed the running thread
	mutexOps       uint64 // ops.mutex_lock
	atomicOps      uint64 // ops.atomic_load + store + rmw
	liveSyscalls   uint64 // ops.syscall in runs against a live environment
	epollWaits     int    // live epoll_wait calls
	conns          int    // connections dialled
	recTicks       uint64 // ticks the recorders noted
	recSyscalls    int
	memRecordings  int
	streamRecs     int
	flushes        float64 // background flushes of streamed recordings
	replays        int
	replayTicks    uint64
	replaySyscalls int
	mutants        int
	races          int
	exploreSelf    time.Duration
	sections       map[string]int
}

// tracing is the traced pass: spans kept in memory, an obs.Tracer and a
// fresh obs.Metrics per run attached through the programs' own Options and
// Config fields, work counts, and the cross-checks between independent
// counts. A nil *tracing is the untraced pass; every method is a no-op.
type tracing struct {
	t0       time.Time
	spans    []span
	tracer   *obs.Tracer
	cur      *obs.Metrics
	cnt      counts
	trials   sample // µs per trial (explore.trial_us)
	sweeps   []sweepCounts
	toDeep   int        // hunt: trials across the run's sweeps to the first deep failure
	demo     *demo.Demo // see keepDemo
	failures []string
}

// sweepCounts are one exploration sweep's outcome counts.
type sweepCounts struct {
	trials, mutants, diverged, minReplays int
}

// traceRing holds every event of the longest single run the workloads
// make (a fluidanimate run at scale 10: about 32k ticks, two events each).
const traceRing = 1 << 17

func newTracing() *tracing {
	return &tracing{t0: time.Now(), tracer: obs.NewTracer(traceRing), cnt: counts{sections: map[string]int{}}}
}

func (t *tracing) begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Layer: layer, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracing) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
}

func (t *tracing) add(name, layer string, parent int, start, dur time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Layer: layer, Start: start, End: start + dur})
}

// runObs returns the observability sinks for the next controlled run: the
// pass's tracer and a fresh metrics registry, so checkRun can compare that
// run's counters with its report.
func (t *tracing) runObs() (*obs.Tracer, *obs.Metrics) {
	if t == nil {
		return nil, nil
	}
	t.cur = obs.NewMetrics()
	return t.tracer, t.cur
}

func (t *tracing) fail(format string, args ...any) {
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// opsKinds are the visible-op kinds core counts as ops.<kind>.
func opsSum(m *obs.Metrics, kinds ...obs.Kind) uint64 {
	if len(kinds) == 0 {
		for k := obs.KindYield; k <= obs.KindOp; k++ {
			kinds = append(kinds, k)
		}
	}
	var s uint64
	for _, k := range kinds {
		s += m.CounterValue("ops." + k.String())
	}
	return s
}

// checkRun cross-checks one controlled run (the ops.* counters must sum to
// Report.Ticks; a queue recording's QUEUE stream must be FinalTick long)
// and folds its counters into the pass's counts.
func (t *tracing) checkRun(name string, rep *core.Report, liveEnv bool) {
	if t == nil || t.cur == nil {
		return
	}
	m := t.cur
	t.cur = nil
	t.countSwitches()
	if sum := opsSum(m); sum != rep.Ticks {
		t.fail("%s: ops.* counters sum to %d but Report.Ticks is %d", name, sum, rep.Ticks)
	}
	if d := rep.Demo; d != nil && d.Strategy == demo.StrategyQueue && uint64(len(d.Queue.Ticks)) != d.FinalTick {
		t.fail("%s: QUEUE stream holds %d ticks but FinalTick is %d", name, len(d.Queue.Ticks), d.FinalTick)
	}
	t.cnt.runs++
	t.cnt.ticks += rep.Ticks
	t.cnt.mutexOps += opsSum(m, obs.KindMutexLock)
	t.cnt.atomicOps += opsSum(m, obs.KindAtomicLoad, obs.KindAtomicStore, obs.KindAtomicRMW)
	if liveEnv {
		t.cnt.liveSyscalls += opsSum(m, obs.KindSyscall)
	}
	for _, s := range sectionNames {
		t.cnt.sections[s] += int(m.CounterValue("demo.bytes." + s))
	}
}

// countSwitches reads the scheduling decisions of the run that just ended
// off the tracer ring and counts those that changed the running thread,
// then empties the ring for the next run.
func (t *tracing) countSwitches() {
	prev := int32(-1)
	for _, e := range t.tracer.Snapshot() {
		if e.Kind != obs.KindSchedule {
			continue
		}
		if prev >= 0 {
			t.cnt.decisions++
			if e.TID != prev {
				t.cnt.switches++
			}
		}
		prev = e.TID
	}
	t.tracer.Reset()
}

// switchShare is the share of visible ops that handed the processor to
// another thread (1 when no decision was traced).
func (c counts) switchShare() float64 {
	if c.decisions == 0 {
		return 1
	}
	return float64(c.switches) / float64(c.decisions)
}

var sectionNames = []string{"queue", "syscall", "signal", "async", "header"}

// noteRecording counts one recording made by the pass.
func (t *tracing) noteRecording(d *demo.Demo, streamed bool, wall time.Duration) {
	if t == nil || d == nil {
		return
	}
	t.cnt.recTicks += d.FinalTick
	t.cnt.recSyscalls += len(d.Syscalls)
	if streamed {
		t.cnt.streamRecs++
		t.cnt.flushes += float64(wall) / float64(25*time.Millisecond)
	} else {
		t.cnt.memRecordings++
	}
	t.keepDemo(d)
}

// keepDemo remembers the pass's longest recording, the input of the
// replayer and mutation probes.
func (t *tracing) keepDemo(d *demo.Demo) {
	if t != nil && (t.demo == nil || d.FinalTick > t.demo.FinalTick) {
		t.demo = d
	}
}

func (t *tracing) noteReplay(d *demo.Demo, rep *core.Report) {
	if t == nil {
		return
	}
	t.cnt.replays++
	t.cnt.replayTicks += rep.Ticks
	t.cnt.replaySyscalls += len(d.Syscalls)
}

func (t *tracing) noteConns(n int) {
	if t != nil {
		t.cnt.conns += n
	}
}

func (t *tracing) noteRaces(n int) {
	if t != nil {
		t.cnt.races += n
	}
}

// trial records one trial duration for explore.trial_us.
func (t *tracing) trial(d time.Duration) {
	if t != nil {
		t.trials.Add(float64(d) / float64(time.Microsecond))
	}
}

// selfTimes returns each layer's self time: every span's duration minus
// the part of it its children cover.
func (t *tracing) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		out[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans dumps the pass's spans as JSON.
func (t *tracing) writeSpans(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
