package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/demo"
	"repro/internal/obs"
)

// clockProgram is a two-thread program whose syscall activity (recorded
// clock reads) gives the SYSCALL stream something to desynchronise on.
func clockProgram(rt *Runtime) func(*Thread) {
	return func(main *Thread) {
		mu := rt.NewMutex("mu")
		h := main.Spawn("worker", func(t *Thread) {
			for i := 0; i < 4; i++ {
				mu.Lock(t)
				_ = t.ClockGettime()
				mu.Unlock(t)
			}
		})
		for i := 0; i < 4; i++ {
			mu.Lock(main)
			_ = main.ClockGettime()
			mu.Unlock(main)
		}
		main.Join(h)
	}
}

func TestTraceAndMetricsCaptureRun(t *testing.T) {
	tr := obs.NewTracer(1 << 10)
	mx := obs.NewMetrics()
	rt := newTestRuntime(t, Options{
		Strategy: demo.StrategyQueue, Seed1: 5, Seed2: 6,
		Record: true, Policy: PolicySparse,
		Trace: tr, Metrics: mx,
	})
	rep, err := rt.Run(clockProgram(rt))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	events := tr.Snapshot()
	if len(events) == 0 {
		t.Fatal("tracer captured no events")
	}
	byKind := map[obs.Kind]int{}
	for _, ev := range events {
		byKind[ev.Kind]++
	}
	for _, k := range []obs.Kind{obs.KindSpawn, obs.KindJoin, obs.KindMutexLock,
		obs.KindMutexUnlock, obs.KindSyscall, obs.KindExit, obs.KindSchedule} {
		if byKind[k] == 0 {
			t.Errorf("no %v events in trace", k)
		}
	}
	// Recorded syscalls carry their stream offset.
	for _, ev := range events {
		if ev.Kind == obs.KindSyscall && ev.Stream != obs.StreamSyscall {
			t.Errorf("syscall event without SYSCALL stream tag: %v", ev)
		}
	}
	if got := mx.CounterValue("ops." + obs.KindSyscall.String()); got != 8 {
		t.Errorf("ops.syscall = %d, want 8", got)
	}
	if mx.CounterValue("desync.hard") != 0 || mx.CounterValue("desync.soft") != 0 {
		t.Error("clean run bumped desync counters")
	}
	if !strings.Contains(mx.Dump(), "run.ms.record") {
		t.Errorf("metrics dump missing run.ms.record:\n%s", mx.Dump())
	}
	if rep.Forensics != nil {
		t.Error("clean run produced a forensics report")
	}
}

// streamsProgram touches every demo stream: a spawn, a mutex, clock reads
// (SYSCALL), a raised signal (SIGNAL), and a signal that reaches a thread
// blocked on the mutex, whose wakeup is an ASYNC entry.
func streamsProgram(rt *Runtime) func(*Thread) {
	return func(main *Thread) {
		mu := rt.NewMutex("mu")
		woken := main.NewAtomic64("woken", 0)
		main.Signal(10, func(h *Thread, sig int32) { h.Printf("raised %d\n", sig) })
		main.Raise(10)
		_ = main.ClockGettime()
		mu.Lock(main)
		h := main.Spawn("owner", func(o *Thread) {
			o.Signal(12, func(ht *Thread, sig int32) { woken.Store(ht, 1, SeqCst) })
			_ = o.ClockGettime()
			mu.Lock(o) // blocks until main has seen the handler run
			mu.Unlock(o)
		})
		for !ownerBlocked(main, h.TID()) {
			main.Yield()
		}
		rt.World().Kill(12)
		for woken.Load(main, SeqCst) == 0 {
			main.Yield()
		}
		mu.Unlock(main)
		main.Join(h)
	}
}

// TestTraceMetricsAndDemoStreamsAgree cross-checks three independent
// accounts of one run, recorded and then strictly replayed under the queue
// and the random strategy: the trace events of each visible-op kind equal
// its ops.<kind> counter, the counters sum to Report.Ticks, and the
// SIGNAL-, SYSCALL- and ASYNC-tagged events equal the lengths of the demo's
// streams. The recording's demo.bytes.<section> counters equal its
// SectionSizes (a strict replay records nothing).
func TestTraceMetricsAndDemoStreamsAgree(t *testing.T) {
	for _, strat := range []demo.Strategy{demo.StrategyQueue, demo.StrategyRandom} {
		var d *demo.Demo
		for _, phase := range []string{"record", "replay"} {
			name := fmt.Sprintf("%v %s", strat, phase)
			tr, mx := obs.NewTracer(1<<16), obs.NewMetrics()
			opts := Options{Strategy: strat, Seed1: 5, Seed2: 6, Record: true}
			if phase == "replay" {
				opts = ReplayOptions(d)
			}
			opts.Trace, opts.Metrics = tr, mx
			rt := newTestRuntime(t, opts)
			rep, err := rt.Run(streamsProgram(rt))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if phase == "record" {
				d = rep.Demo
				if len(d.Signals) == 0 || len(d.Syscalls) == 0 || len(d.Asyncs) == 0 {
					t.Fatalf("%s: a stream is empty: %d signals, %d syscalls, %d asyncs",
						name, len(d.Signals), len(d.Syscalls), len(d.Asyncs))
				}
				for section, size := range d.SectionSizes() {
					if got := mx.CounterValue("demo.bytes." + section); got != uint64(size) {
						t.Errorf("%s: demo.bytes.%s = %d, SectionSizes says %d", name, section, got, size)
					}
				}
			}
			byKind, byStream := map[obs.Kind]uint64{}, map[obs.Stream]int{}
			for _, ev := range tr.Snapshot() {
				byKind[ev.Kind]++
				byStream[ev.Stream]++
			}
			var sum uint64
			for k := obs.KindYield; k <= obs.KindOp; k++ {
				n := mx.CounterValue("ops." + k.String())
				if byKind[k] != n {
					t.Errorf("%s: %d %v events in the trace, ops.%v = %d", name, byKind[k], k, k, n)
				}
				sum += n
			}
			if sum != rep.Ticks {
				t.Errorf("%s: ops.* counters sum to %d, Report.Ticks = %d", name, sum, rep.Ticks)
			}
			for stream, n := range map[obs.Stream]int{
				obs.StreamSignal: len(d.Signals), obs.StreamSyscall: len(d.Syscalls), obs.StreamAsync: len(d.Asyncs),
			} {
				if byStream[stream] != n {
					t.Errorf("%s: %d %v-tagged events, the demo's stream holds %d", name, byStream[stream], stream, n)
				}
			}
		}
	}
}

func TestForensicsOnHardDesync(t *testing.T) {
	rt := newTestRuntime(t, Options{
		Strategy: demo.StrategyQueue, Seed1: 5, Seed2: 6,
		Record: true, Policy: PolicySparse,
	})
	rep, err := rt.Run(clockProgram(rt))
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	d := rep.Demo
	if len(d.Syscalls) < 2 {
		t.Fatalf("recorded only %d syscalls", len(d.Syscalls))
	}
	// Truncate the SYSCALL stream: replay must hard-desynchronise when the
	// first missing record is demanded.
	d.Syscalls = d.Syscalls[:len(d.Syscalls)/2]

	tr := obs.NewTracer(1 << 10)
	mx := obs.NewMetrics()
	rt2 := newTestRuntime(t, Options{
		Strategy: demo.StrategyQueue, Replay: d, Policy: PolicySparse,
		Trace: tr, Metrics: mx,
	})
	rep2, err := rt2.Run(clockProgram(rt2))
	if err == nil {
		t.Fatal("replay of truncated demo succeeded")
	}
	var de *demo.DesyncError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DesyncError", err)
	}
	if de.Stream != "SYSCALL" {
		t.Errorf("desync stream = %q, want SYSCALL", de.Stream)
	}
	if de.Tick == 0 {
		t.Error("desync error carries no tick")
	}
	msg := de.Error()
	for _, want := range []string{"tick", "SYSCALL", "thread", "offset"} {
		if !strings.Contains(msg, want) {
			t.Errorf("DesyncError message missing %q: %s", want, msg)
		}
	}

	f := rep2.Forensics
	if f == nil {
		t.Fatal("no forensics report on hard desync")
	}
	if f.Soft {
		t.Error("hard desync flagged as soft")
	}
	if f.Desync != de {
		t.Error("forensics carries a different DesyncError than the run error")
	}
	if len(f.Events) == 0 {
		t.Error("forensics carries no trace events")
	}
	report := f.Render()
	for _, want := range []string{"hard desynchronisation", "SYSCALL stream", "demo cursor", "trace events"} {
		if !strings.Contains(report, want) {
			t.Errorf("forensics report missing %q:\n%s", want, report)
		}
	}
	if f.Cursor.SyscallsTotal != len(d.Syscalls) {
		t.Errorf("cursor total = %d, want %d", f.Cursor.SyscallsTotal, len(d.Syscalls))
	}
	if mx.CounterValue("desync.hard") != 1 {
		t.Errorf("desync.hard = %d, want 1", mx.CounterValue("desync.hard"))
	}
	// The trace tail must include the desync event the scheduler emitted.
	sawDesync := false
	for _, ev := range f.Events {
		if ev.Kind == obs.KindDesync {
			sawDesync = true
		}
	}
	if !sawDesync {
		t.Error("forensics trace tail has no desync event")
	}
}

func TestObsNilSafeRun(t *testing.T) {
	// A runtime with no observability attached must behave identically.
	rt := newTestRuntime(t, Options{Strategy: demo.StrategyRandom, Seed1: 3, Seed2: 4})
	rep, err := rt.Run(clockProgram(rt))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Forensics != nil {
		t.Error("unexpected forensics report")
	}
}

// TestDivergenceLeavesOneTraceEvent: a replay whose SYSCALL stream is cut
// short leaves exactly one desync event in the trace, at the point the
// run's verdict names — the divergence of a tolerant replay, which goes
// live and completes, and the hard desync of a strict one.
func TestDivergenceLeavesOneTraceEvent(t *testing.T) {
	rt := newTestRuntime(t, Options{
		Strategy: demo.StrategyQueue, Seed1: 5, Seed2: 6,
		Record: true, Policy: PolicySparse,
	})
	rec, err := rt.Run(clockProgram(rt))
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	d := rec.Demo
	cut := len(d.Syscalls) / 2
	d.Syscalls = d.Syscalls[:cut]

	desyncs := func(tr *obs.Tracer) []obs.Event {
		var evs []obs.Event
		for _, ev := range tr.Snapshot() {
			if ev.Kind == obs.KindDesync {
				evs = append(evs, ev)
			}
		}
		return evs
	}

	tr := obs.NewTracer(1 << 12)
	opts := TolerantReplayOptions(d)
	opts.Policy, opts.Trace = PolicySparse, tr
	rt2 := newTestRuntime(t, opts)
	rep, err := rt2.Run(clockProgram(rt2))
	if err != nil {
		t.Fatalf("tolerant replay: %v", err)
	}
	if rep.Diverged == nil {
		t.Fatal("tolerant replay of a cut SYSCALL stream did not diverge")
	}
	evs := desyncs(tr)
	if len(evs) != 1 {
		t.Fatalf("trace holds %d desync events, want 1: %v", len(evs), evs)
	}
	if ev := evs[0]; ev.Stream != obs.StreamSyscall || ev.Tick != rep.Diverged.Tick || ev.Offset != uint64(cut) {
		t.Errorf("desync event %v does not match divergence %v at SYSCALL offset %d", ev, rep.Diverged, cut)
	}

	tr = obs.NewTracer(1 << 12)
	rt3 := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Replay: d, Policy: PolicySparse, Trace: tr})
	_, err = rt3.Run(clockProgram(rt3))
	var de *demo.DesyncError
	if !errors.As(err, &de) {
		t.Fatalf("strict replay err = %v, want DesyncError", err)
	}
	evs = desyncs(tr)
	if len(evs) != 1 || evs[0].Tick != de.Tick || evs[0].Stream != obs.StreamSyscall {
		t.Errorf("strict replay trace holds desync events %v, want one for %v", evs, de)
	}
}
