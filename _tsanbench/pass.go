package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps/litmus"
	"repro/internal/apps/modes"
	"repro/internal/apps/parsec"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/prng"
)

// tracedUnit is the unit index of the traced pass, apart from the untraced
// units' indexes.
const tracedUnit = 1 << 20

// tracedPass runs one traced unit, the probes at the workload's shape, the
// attribution of the untraced unit wall time (seconds) and the gap report,
// emitting every per-layer metric. It returns the failed checks.
func tracedPass(c *config, spec workloadSpec, w workload, untracedWall float64, res *result, out io.Writer) []string {
	tr := newTracing()
	u := w.unit(tracedUnit, tr)
	failures := append(u.failures, tr.failures...)
	if tr.demo == nil {
		return append(failures, "traced unit made no recording")
	}
	if err := tr.writeSpans(filepath.Join(c.dir, fmt.Sprintf("spans-%s-%d.json", spec.name, c.seed))); err != nil {
		failures = append(failures, "writing spans: "+err.Error())
	}
	fmt.Fprintln(out, "  traced unit, self time by layer:")
	self := tr.selfTimes()
	for _, layer := range sortedKeys(self) {
		fmt.Fprintf(out, "    %-8s %v\n", layer, self[layer].Round(time.Microsecond))
	}

	sh := w.shape()
	d := tr.demo
	sh.ticks, sh.syscalls = max(1, d.FinalTick), len(d.Syscalls)
	sh.bufBytes = 10 // without a SYSCALL stream, price records of netload's size
	if sh.syscalls > 0 {
		var b int
		for _, sc := range d.Syscalls {
			for _, buf := range sc.Bufs {
				b += len(buf)
			}
		}
		sh.bufBytes = max(1, b/sh.syscalls)
	}
	sh.flush = sh.ticks
	if u.record > 0 {
		perWindow := float64(tr.cnt.recTicks) * float64(25*time.Millisecond) / float64(u.record)
		sh.flush = max(1, min(sh.ticks, uint64(perWindow)))
	}

	dir, err := os.MkdirTemp(c.dir, "probes-")
	if err != nil {
		return append(failures, "probe dir: "+err.Error())
	}
	defer os.RemoveAll(dir)
	p := &prober{c: c, dir: dir}
	v := make(map[string]float64)
	probe := func(name string, s *sample) {
		v[name] = s.median()
		fmt.Fprintf(out, "  %-26s %s\n", name, s.describe(res.defs[name].Unit))
	}
	selfTick := p.selfTick(sh)
	probe("sched.self_tick_ns", selfTick)
	probe("sched.handoff_ns", p.handoff(sh, selfTick.median()))
	probe("tsan.access_ns", p.access(sh))
	probe("tsan.atomic_pair_ns", p.atomicPair(sh))
	probe("tsan.mutex_edge_ns", p.mutexEdge(sh))
	probe("demo.note_schedule_ns", p.noteSchedule(sh))
	probe("demo.stream_note_ns", p.streamNote(sh))
	probe("demo.add_syscall_ns", p.addSyscall(sh))
	probe("demo.stream_open_us", p.streamOpen(sh))
	probe("demo.stream_close_us", p.streamClose(sh))
	probe("demo.stream_flush_us", p.streamFlush(sh))
	probe("demo.finish_us", p.finish(sh))
	probe("demo.readfile_us", p.readFile(sh))
	probe("demo.replayer_new_us", p.replayerNew(d))
	probe("demo.cursor_step_ns", p.cursorStep(d))
	probe("demo.next_syscall_ns", p.nextSyscall(sh))
	probe("demo.mutate_us", p.mutate(d))
	probe("env.send_recv_ns", p.sendRecv(sh))
	probe("env.epoll_wait_ns", p.epollWait())
	probe("env.connect_us", p.connect())
	probe("env.vtime_wake_us", p.vtimeWake())
	probe("core.new_us", p.coreNew(sh))
	probe("core.run_empty_us", p.runEmpty(sh))
	probe("core.yield_pair_ns", p.yieldPair(sh))
	probe("core.mutex_pair_ns", p.mutexPair(sh))
	rec, rep := p.syscalls(sh)
	probe("core.syscall_rec_ns", rec)
	probe("core.syscall_replay_ns", rep)
	probe("explore.trial_us", &tr.trials)
	for name, x := range v {
		res.emit(name, x)
	}

	cnt := tr.cnt
	res.emit("sched.ticks", float64(cnt.ticks))
	res.emit("tsan.races", float64(cnt.races))
	for _, s := range sectionNames {
		res.emit("demo.bytes."+s, float64(cnt.sections[s]))
	}
	var sw sweepCounts
	for _, s := range tr.sweeps {
		sw.trials += s.trials
		sw.mutants += s.mutants
		sw.diverged += s.diverged
		sw.minReplays += s.minReplays
	}
	feasible := 0.0
	if sw.mutants > 0 {
		feasible = 1 - float64(sw.diverged)/float64(sw.mutants)
	}
	res.emit("explore.trials", float64(sw.trials))
	res.emit("explore.mutants", float64(sw.mutants))
	res.emit("explore.diverged", float64(sw.diverged))
	res.emit("explore.mutant_feasible", feasible)
	res.emit("explore.trials_to_deep", float64(tr.toDeep))
	res.emit("explore.minimize_replays", float64(sw.minReplays))
	fmt.Fprintf(out, "  counts: ticks %d (%.0f%% switches), races %d, demo bytes %v, sweeps %+v, trials to deep %d\n",
		cnt.ticks, 100*cnt.switchShare(), cnt.races, cnt.sections, sw, tr.toDeep)

	overhead := 100 * (u.wall().Seconds()/untracedWall - 1)
	res.emit("obs.trace_overhead_pct", overhead)
	fmt.Fprintf(out, "  traced unit %v vs untraced median %.3fs: trace overhead %.1f%%\n",
		u.wall().Round(time.Millisecond), untracedWall, overhead)

	attribute(cnt, v, untracedWall, res, out)
	gaps(c, p, res, out)
	return failures
}

// attribute splits the untraced unit wall time across the layers: each
// layer's share is its counts from the traced unit times its probe costs.
func attribute(cnt counts, v map[string]float64, wall float64, res *result, out io.Writer) {
	ns := func(count, perNS float64) float64 { return count * perNS / 1e9 }
	us := func(count, perUS float64) float64 { return count * perUS / 1e6 }
	ticks := float64(cnt.ticks)
	switches := ticks * cnt.switchShare()
	layers := map[string]float64{
		"sched": ns(ticks-switches, v["sched.self_tick_ns"]) + ns(switches, v["sched.handoff_ns"]),
		"tsan": ns(float64(cnt.mutexOps), v["tsan.mutex_edge_ns"]) +
			ns(float64(cnt.atomicOps), v["tsan.atomic_pair_ns"]/2) +
			ns(ticks, v["tsan.access_ns"]),
		"demo": ns(float64(cnt.recTicks), v["demo.note_schedule_ns"]) +
			ns(float64(cnt.recSyscalls), v["demo.add_syscall_ns"]) +
			us(float64(cnt.streamRecs), v["demo.stream_open_us"]+v["demo.stream_close_us"]+v["demo.readfile_us"]) +
			us(float64(cnt.memRecordings), v["demo.finish_us"]) +
			us(cnt.flushes, v["demo.stream_flush_us"]) +
			us(float64(cnt.replays), v["demo.replayer_new_us"]) +
			ns(float64(cnt.replayTicks), v["demo.cursor_step_ns"]) +
			ns(float64(cnt.replaySyscalls), v["demo.next_syscall_ns"]) +
			us(float64(cnt.mutants), v["demo.mutate_us"]),
		"env": ns(float64(cnt.liveSyscalls), v["env.send_recv_ns"]/2) +
			ns(float64(cnt.epollWaits), v["env.epoll_wait_ns"]) +
			us(float64(cnt.conns), v["env.connect_us"]+v["env.vtime_wake_us"]),
		"core": us(float64(cnt.runs), v["core.new_us"]+v["core.run_empty_us"]) +
			ns(ticks, max(0, v["core.yield_pair_ns"]-v["sched.handoff_ns"])),
		"explore": cnt.exploreSelf.Seconds(),
	}
	rest := 100.0
	fmt.Fprintf(out, "  attribution of the %.3fs unit:", wall)
	for _, layer := range []string{"sched", "tsan", "demo", "env", "core", "explore"} {
		pct := 100 * layers[layer] / wall
		rest -= pct
		res.emit("attrib."+layer+"_pct", pct)
		fmt.Fprintf(out, " %s %.1f%%", layer, pct)
	}
	res.emit("attrib.unexplained_pct", rest)
	fmt.Fprintf(out, " unexplained %.1f%%\n", rest)
}

// gaps measures ROADMAP's two unexplained gaps at the shapes the roadmap
// names, whatever the workload: a needle trial streamed vs in memory, and a
// fluidanimate visible op under queue vs a handoff plus a mutex edge.
func gaps(c *config, p *prober, res *result, out io.Writer) {
	// Gap 2 first: measured right after gap 1's fsync-heavy trials, the
	// handoff probe has read ten times its usual cost.
	fluid, _ := parsec.ByName("fluidanimate")
	var perTick sample
	for i := 0; i < max(3, p.n(10)); i++ {
		opts, _ := modes.Options("queue", uint64(i)+1, true)
		d, rep, err := parsec.RunOnce(fluid, opts, c.procs, c.size.scale)
		if err != nil || rep.Err != nil || rep.Ticks == 0 {
			continue
		}
		perTick.Add(float64(d) / float64(rep.Ticks))
	}
	fluidShape := shape{threads: c.procs + 1, strategy: demo.StrategyQueue}
	tickProbes := p.handoff(fluidShape, p.selfTick(fluidShape).median()).median() + p.mutexEdge(fluidShape).median()
	res.emit("gap.tick_ns", perTick.median())
	res.emit("gap.tick_probes_ns", tickProbes)
	res.emit("gap.tick_remainder_ns", perTick.median()-tickProbes)
	fmt.Fprintf(out, "  gap 2 (fluidanimate, %d threads, scale %d): %.0fns per visible op; handoff+mutex edge %.0fns; unexplained %.0fns\n",
		c.procs, c.size.scale, perTick.median(), tickProbes, perTick.median()-tickProbes)

	needle, _ := litmus.ByName("needle")
	trials := p.n(400)
	path := filepath.Join(p.dir, "gap.demo2")
	var mem, streamed sample
	var trialDemo *demo.Demo
	// A trial as explore runs one: build the runtime (which opens the
	// stream), run, and drop a passing trial's file.
	trial := func(opts core.Options) (time.Duration, *core.Report) {
		t0 := time.Now()
		rt, err := core.New(opts)
		if err != nil {
			return 0, nil
		}
		rep, err := rt.Run(needle.Body(rt))
		if err != nil {
			return 0, nil
		}
		if rep.DemoPath != "" {
			os.Remove(rep.DemoPath)
		}
		return time.Since(t0), rep
	}
	for i := 0; i < trials; i++ {
		s1, s2 := prng.Derive(c.seed, uint64(i))
		for _, streaming := range []bool{false, true} {
			opts := core.RecordOptions(demo.StrategyRandom, s1, s2)
			opts.RescheduleQuantum = -1
			if streaming {
				opts.RecordPath = path
			}
			d, rep := trial(opts)
			if rep == nil {
				continue
			}
			us := float64(d) / float64(time.Microsecond)
			if streaming {
				streamed.Add(us)
			} else {
				mem.Add(us)
				if trialDemo == nil || rep.Demo.FinalTick > trialDemo.FinalTick {
					trialDemo = rep.Demo
				}
			}
		}
	}
	trialShape := shape{threads: 3, strategy: demo.StrategyRandom, ticks: 1}
	if trialDemo != nil {
		trialShape.ticks = trialDemo.FinalTick
	}
	delta := streamed.median() - mem.median()
	probes := p.streamOpen(trialShape).median() + p.streamClose(trialShape).median() + p.readFile(trialShape).median()
	res.emit("gap.stream_delta_us", delta)
	res.emit("gap.stream_probes_us", probes)
	res.emit("gap.stream_remainder_us", delta-probes)
	fmt.Fprintf(out, "  gap 1 (needle trial, %d each): in memory %.1fus, streamed %.1fus; delta %.1fus, open+close+read-back %.1fus, unexplained %.1fus\n",
		trials, mem.median(), streamed.median(), delta, probes, delta-probes)
}
