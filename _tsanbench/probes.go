package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/env"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/tsan"
)

// shape is what a probe copies from its workload: thread count, strategy,
// record mode and the size of one recording (filled in from the traced
// unit).
type shape struct {
	threads  int
	strategy demo.Strategy
	streamed bool
	ticks    uint64 // ticks of one recording
	syscalls int    // SYSCALL records of one recording
	flush    uint64 // ticks recorded in one 25ms flush window
	bufBytes int    // mean output bytes per SYSCALL record
}

// prober times calls into one layer. Each measure call runs batches of
// ops and keeps one per-op figure per batch.
type prober struct {
	c   *config
	dir string
}

// measure runs body batches times; body returns its elapsed time and the
// number of ops it timed. Figures are in units of per (e.g. time.Nanosecond).
func (p *prober) measure(batches int, per time.Duration, body func() (time.Duration, int)) *sample {
	var s sample
	for i := 0; i < batches; i++ {
		d, n := body()
		if n > 0 {
			s.Add(float64(d) / float64(n) / float64(per))
		}
	}
	return &s
}

func (p *prober) n(base int) int { return max(1, base*p.c.size.probe/20) }

// selfTick times Wait+Tick by one thread while the others are parked in a
// join on it.
func (p *prober) selfTick(sh shape) *sample {
	s, err := sched.New(sched.Options{Kind: sh.strategy, Seed1: 1, Seed2: 2})
	if err != nil {
		return &sample{}
	}
	var parked atomic.Int32
	var wg sync.WaitGroup
	for i := 1; i < sh.threads; i++ {
		s.Wait(0)
		tid := s.ThreadNew(0, "parked")
		s.Tick(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Wait(tid)
			s.ThreadJoin(tid, 0)
			s.Tick(tid)
			parked.Add(1)
			s.Wait(tid) // until main's ThreadDelete re-enables it
			s.ThreadDelete(tid)
			s.Tick(tid)
		}()
	}
	for int(parked.Load()) < sh.threads-1 {
		s.Wait(0)
		s.Tick(0)
	}
	n := p.n(20000)
	out := p.measure(30, time.Nanosecond, func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.Wait(0)
			s.Tick(0)
		}
		return time.Since(t0), n
	})
	s.Wait(0)
	s.ThreadDelete(0)
	s.Tick(0)
	wg.Wait()
	return out
}

// handoff times Wait+Tick alternating between two runnable goroutines and
// prices each thread switch: the batch time minus selfTick for every tick
// that did not switch, over the switches. Each thread holds its tick until
// the other has arrived at Wait, so every tick hands over: left alone, one
// goroutine can run many ticks before the other reaches Wait, and each
// rare switch then reads tens of µs of waiting rather than a handoff.
func (p *prober) handoff(sh shape, selfTickNS float64) *sample {
	n := p.n(10000)
	return p.measure(30, time.Nanosecond, func() (time.Duration, int) {
		s, err := sched.New(sched.Options{Kind: sh.strategy, Seed1: 1, Seed2: 2})
		if err != nil {
			return 0, 0
		}
		s.Wait(0)
		peer := s.ThreadNew(0, "peer")
		s.Tick(0)
		tids := [2]sched.TID{0, peer}
		var arrived, ticked [2]atomic.Int64
		var finished [2]atomic.Bool
		// last and switches are only touched between Wait and Tick, which
		// the scheduler serialises.
		last, switches := sched.TID(0), 0
		op := func(me int, body func()) {
			other := 1 - me
			arrived[me].Add(1)
			s.Wait(tids[me])
			for arrived[other].Load() == ticked[other].Load() && !finished[other].Load() {
				runtime.Gosched()
			}
			if tids[me] != last {
				switches++
			}
			last = tids[me]
			if body != nil {
				body()
			}
			s.Tick(tids[me])
			ticked[me].Add(1)
		}
		thread := func(me int) {
			for i := 0; i < n; i++ {
				op(me, nil)
			}
			op(me, func() { s.ThreadDelete(tids[me]) })
			finished[me].Store(true)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		t0 := time.Now()
		go func() {
			defer wg.Done()
			thread(1)
		}()
		thread(0)
		wg.Wait()
		d := time.Since(t0)
		rest := time.Duration(float64(2*n+2-switches) * selfTickNS)
		return d - rest, switches
	})
}

func newDetector(threads int) *tsan.Detector {
	d := tsan.New(prng.New(1, 2), tsan.Options{})
	for tid := 1; tid < threads; tid++ {
		d.OnThreadCreate(0, tsan.TID(tid))
	}
	return d
}

func (p *prober) access(sh shape) *sample {
	d := newDetector(sh.threads)
	tid := tsan.TID(sh.threads - 1)
	var shadow tsan.Shadow
	n := p.n(100000)
	return p.measure(30, time.Nanosecond, func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			d.OnRead(&shadow, tid, "bench.x")
			d.OnWrite(&shadow, tid, "bench.x")
		}
		return time.Since(t0), n
	})
}

func (p *prober) atomicPair(sh shape) *sample {
	d := newDetector(sh.threads)
	a := tsan.NewAtomicState(d, 0, 0)
	other := tsan.TID(sh.threads - 1)
	n := p.n(100000)
	return p.measure(30, time.Nanosecond, func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			d.Store(a, 0, uint64(i), tsan.Release)
			_ = d.Load(a, other, tsan.Acquire)
		}
		return time.Since(t0), n
	})
}

func (p *prober) mutexEdge(sh shape) *sample {
	d := newDetector(sh.threads)
	mu := d.ReleaseSnapshot(0)
	other := tsan.TID(sh.threads - 1)
	n := p.n(100000)
	return p.measure(30, time.Nanosecond, func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tid := tsan.TID(0)
			if i%2 == 1 {
				tid = other
			}
			d.AcquireSnapshot(tid, mu)
			mu = d.ReleaseSnapshot(tid)
		}
		return time.Since(t0), n
	})
}

// noteTicks feeds n ticks to a recorder the way the workload's strategy
// does: NoteSchedule round-robin over the threads for queue, NoteTick for
// the seed-determined strategies.
func noteTicks(r *demo.Recorder, sh shape, from, n uint64) {
	for t := from; t < from+n; t++ {
		if sh.strategy == demo.StrategyQueue {
			r.NoteSchedule(int32(t%uint64(sh.threads)), t)
		} else {
			r.NoteTick(t)
		}
	}
}

func syscallRecord(sh shape) demo.SyscallRecord {
	return demo.SyscallRecord{TID: 1, Kind: uint16(env.SysRecv), Ret: int64(sh.bufBytes), Bufs: [][]byte{make([]byte, sh.bufBytes)}}
}

// fill records one recording's worth of ticks and syscalls.
func fill(r *demo.Recorder, sh shape) {
	noteTicks(r, sh, 1, sh.ticks)
	rec := syscallRecord(sh)
	for i := 0; i < sh.syscalls; i++ {
		r.AddSyscall(rec)
	}
}

func (p *prober) noteSchedule(sh shape) *sample {
	n := uint64(p.n(100000))
	return p.measure(20, time.Nanosecond, func() (time.Duration, int) {
		r := demo.NewRecorder(sh.strategy, 1, 2)
		t0 := time.Now()
		noteTicks(r, sh, 1, n)
		return time.Since(t0), int(n)
	})
}

// stream opens a streaming recorder in the probe directory.
func (p *prober) stream(sh shape, opts demo.StreamOptions) (*demo.Recorder, string, error) {
	path := filepath.Join(p.dir, "probe.demo2")
	r, err := demo.NewStreamingRecorder(path, sh.strategy, 1, 2, opts)
	return r, path, err
}

func (p *prober) streamNote(sh shape) *sample {
	n := uint64(p.n(1000000))
	return p.measure(10, time.Nanosecond, func() (time.Duration, int) {
		r, path, err := p.stream(sh, demo.StreamOptions{})
		if err != nil {
			return 0, 0
		}
		defer os.Remove(path)
		t0 := time.Now()
		noteTicks(r, sh, 1, n)
		d := time.Since(t0)
		if err := r.Close(n); err != nil {
			return 0, 0
		}
		return d, int(n)
	})
}

func (p *prober) addSyscall(sh shape) *sample {
	n := p.n(50000)
	rec := syscallRecord(sh)
	return p.measure(20, time.Nanosecond, func() (time.Duration, int) {
		var r *demo.Recorder
		if sh.streamed {
			var path string
			var err error
			if r, path, err = p.stream(sh, demo.StreamOptions{}); err != nil {
				return 0, 0
			}
			defer os.Remove(path)
			defer r.Close(1)
		} else {
			r = demo.NewRecorder(sh.strategy, 1, 2)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			r.AddSyscall(rec)
		}
		return time.Since(t0), n
	})
}

func (p *prober) streamOpen(sh shape) *sample {
	return p.measure(p.n(100), time.Microsecond, func() (time.Duration, int) {
		t0 := time.Now()
		r, path, err := p.stream(sh, demo.StreamOptions{})
		d := time.Since(t0)
		if err != nil {
			return 0, 0
		}
		r.Close(0)
		os.Remove(path)
		return d, 1
	})
}

func (p *prober) streamClose(sh shape) *sample {
	return p.measure(p.n(100), time.Microsecond, func() (time.Duration, int) {
		r, path, err := p.stream(sh, demo.StreamOptions{})
		if err != nil {
			return 0, 0
		}
		defer os.Remove(path)
		fill(r, sh)
		t0 := time.Now()
		if err := r.Close(sh.ticks); err != nil {
			return 0, 0
		}
		return time.Since(t0), 1
	})
}

// streamFlush times Flush of one 25ms window; the background flusher is
// parked (hour-long interval) so every window reaches the timed Flush.
func (p *prober) streamFlush(sh shape) *sample {
	r, path, err := p.stream(sh, demo.StreamOptions{FlushInterval: time.Hour})
	if err != nil {
		return &sample{}
	}
	defer os.Remove(path)
	window := max(1, sh.flush)
	sys := int(uint64(sh.syscalls) * window / max(1, sh.ticks))
	rec := syscallRecord(sh)
	next := uint64(1)
	out := p.measure(p.n(200), time.Microsecond, func() (time.Duration, int) {
		noteTicks(r, sh, next, window)
		next += window
		for i := 0; i < sys; i++ {
			r.AddSyscall(rec)
		}
		t0 := time.Now()
		if err := r.Flush(); err != nil {
			return 0, 0
		}
		return time.Since(t0), 1
	})
	r.Close(next - 1)
	return out
}

func (p *prober) finish(sh shape) *sample {
	r := demo.NewRecorder(sh.strategy, 1, 2)
	fill(r, sh)
	return p.measure(p.n(100), time.Microsecond, func() (time.Duration, int) {
		t0 := time.Now()
		_ = r.Finish(sh.ticks).Encode()
		return time.Since(t0), 1
	})
}

func (p *prober) readFile(sh shape) *sample {
	r, path, err := p.stream(sh, demo.StreamOptions{})
	if err != nil {
		return &sample{}
	}
	defer os.Remove(path)
	fill(r, sh)
	if err := r.Close(sh.ticks); err != nil {
		return &sample{}
	}
	return p.measure(p.n(100), time.Microsecond, func() (time.Duration, int) {
		t0 := time.Now()
		if _, err := demo.ReadFile(path); err != nil {
			return 0, 0
		}
		return time.Since(t0), 1
	})
}

func (p *prober) replayerNew(d *demo.Demo) *sample {
	return p.measure(p.n(100), time.Microsecond, func() (time.Duration, int) {
		t0 := time.Now()
		if _, err := demo.NewReplayer(d, demo.ReplayStrict); err != nil {
			return 0, 0
		}
		return time.Since(t0), 1
	})
}

// cursorStep walks a fresh replayer over every recorded tick, asking each
// stream what the tick demands.
func (p *prober) cursorStep(d *demo.Demo) *sample {
	return p.measure(p.n(40), time.Nanosecond, func() (time.Duration, int) {
		rp, err := demo.NewReplayer(d, demo.ReplayStrict)
		if err != nil {
			return 0, 0
		}
		t0 := time.Now()
		for t := uint64(1); t <= d.FinalTick; t++ {
			tid := max(0, rp.ScheduledAt(t))
			rp.SignalsAt(tid, t)
			rp.AsyncsAt(t)
		}
		return time.Since(t0), int(d.FinalTick)
	})
}

func (p *prober) nextSyscall(sh shape) *sample {
	n := p.n(20000)
	rec := syscallRecord(sh)
	d := &demo.Demo{Strategy: demo.StrategyRandom, Syscalls: make([]demo.SyscallRecord, n)}
	for i := range d.Syscalls {
		d.Syscalls[i] = rec
	}
	return p.measure(20, time.Nanosecond, func() (time.Duration, int) {
		rp, err := demo.NewReplayer(d, demo.ReplayStrict)
		if err != nil {
			return 0, 0
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, _, err := rp.NextSyscall(rec.TID, rec.Kind, uint64(i)); err != nil {
				return 0, 0
			}
		}
		return time.Since(t0), n
	})
}

func (p *prober) mutate(d *demo.Demo) *sample {
	rng := prng.New(p.c.seed, 7)
	return p.measure(p.n(200), time.Microsecond, func() (time.Duration, int) {
		t0 := time.Now()
		// A demo no operator applies to still pays for the attempt, which
		// is what a mutation source spends on it.
		_, _, _ = demo.MutateOnce(d, rng, nil)
		return time.Since(t0), 1
	})
}

func (p *prober) sendRecv(sh shape) *sample {
	w := env.NewWorld(1)
	defer w.Shutdown()
	rfd, wfd := w.Pipe()
	msg := make([]byte, max(1, sh.bufBytes))
	n := p.n(50000)
	return p.measure(20, time.Nanosecond, func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, e := w.Send(wfd, msg); e != env.OK {
				return 0, 0
			}
			if _, e := w.Recv(rfd, 256); e != env.OK {
				return 0, 0
			}
		}
		return time.Since(t0), n
	})
}

func (p *prober) epollWait() *sample {
	w := env.NewWorld(1)
	defer w.Shutdown()
	ep := w.EpollCreate()
	for i := 0; i < 64; i++ {
		rfd, wfd := w.Pipe()
		w.Send(wfd, []byte("x"))
		w.EpollCtl(ep, env.EpollAdd, rfd, env.PollIn)
	}
	n := p.n(10000)
	return p.measure(20, time.Nanosecond, func() (time.Duration, int) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if evs, _ := w.EpollWait(ep, 64); len(evs) != 64 {
				return 0, 0
			}
		}
		return time.Since(t0), n
	})
}

func (p *prober) connect() *sample {
	w := env.NewWorld(1)
	defer w.Shutdown()
	lfd := w.Socket()
	if w.Bind(lfd, 80) != env.OK || w.Listen(lfd, 1<<16) != env.OK {
		return &sample{}
	}
	return p.measure(p.n(2000), time.Microsecond, func() (time.Duration, int) {
		t0 := time.Now()
		ext, err := w.ExternalConnect(80, time.Second)
		if err != nil {
			return 0, 0
		}
		cfd, errno := w.Accept(lfd)
		if errno != env.OK {
			return 0, 0
		}
		w.Close(cfd)
		ext.Close()
		return time.Since(t0), 1
	})
}

func (p *prober) vtimeWake() *sample {
	w := env.NewWorld(1)
	defer w.Shutdown()
	w.EnableVirtualTime(0)
	return p.measure(p.n(200), time.Microsecond, func() (time.Duration, int) {
		t0 := time.Now()
		if err := w.SleepVirtual(time.Second); err != nil {
			return 0, 0
		}
		return time.Since(t0), 1
	})
}

// runOptions is a run of the workload's shape: its strategy, recording in
// memory (streaming is priced by the demo probes), the watchdog as the
// workload sets it.
func runOptions(sh shape, record bool) core.Options {
	opts := core.Options{Strategy: sh.strategy, Seed1: 1, Seed2: 2, Record: record, ReportRaces: true}
	if sh.strategy != demo.StrategyQueue {
		opts.RescheduleQuantum = -1
	}
	return opts
}

func (p *prober) coreNew(sh shape) *sample {
	return p.measure(p.n(200), time.Microsecond, func() (time.Duration, int) {
		t0 := time.Now()
		w := env.NewWorld(1)
		opts := runOptions(sh, true)
		opts.World = w
		_, err := core.New(opts)
		d := time.Since(t0)
		w.Shutdown()
		if err != nil {
			return 0, 0
		}
		return d, 1
	})
}

func (p *prober) runEmpty(sh shape) *sample {
	return p.measure(p.n(200), time.Microsecond, func() (time.Duration, int) {
		rt, err := core.New(runOptions(sh, true))
		if err != nil {
			return 0, 0
		}
		t0 := time.Now()
		if _, err := rt.Run(func(*core.Thread) {}); err != nil {
			return 0, 0
		}
		return time.Since(t0), 1
	})
}

// pairRun times a two-thread program and prices it per visible op.
func (p *prober) pairRun(opts core.Options, body func(rt *core.Runtime, t *core.Thread)) (time.Duration, *core.Report) {
	rt, err := core.New(opts)
	if err != nil {
		return 0, nil
	}
	t0 := time.Now()
	rep, err := rt.Run(func(main *core.Thread) {
		h := main.Spawn("peer", func(t *core.Thread) { body(rt, t) })
		body(rt, main)
		main.Join(h)
	})
	if err != nil || rep.Err != nil {
		return 0, nil
	}
	return time.Since(t0), rep
}

func (p *prober) yieldPair(sh shape) *sample {
	n := p.n(5000)
	return p.measure(20, time.Nanosecond, func() (time.Duration, int) {
		d, rep := p.pairRun(runOptions(sh, false), func(_ *core.Runtime, t *core.Thread) {
			for i := 0; i < n; i++ {
				t.Yield()
			}
		})
		if rep == nil {
			return 0, 0
		}
		return d, int(rep.Ticks)
	})
}

func (p *prober) mutexPair(sh shape) *sample {
	n := p.n(2500)
	return p.measure(20, time.Nanosecond, func() (time.Duration, int) {
		var mu *core.Mutex
		var once sync.Once
		d, rep := p.pairRun(runOptions(sh, false), func(rt *core.Runtime, t *core.Thread) {
			once.Do(func() { mu = rt.NewMutex("probe.mu") })
			for i := 0; i < n; i++ {
				mu.Lock(t)
				mu.Unlock(t)
			}
		})
		if rep == nil {
			return 0, 0
		}
		return d, int(rep.Ticks)
	})
}

// syscalls times Send+Recv on a pipe recorded under the workload's
// strategy, then the strict replay of that recording, per call.
func (p *prober) syscalls(sh shape) (rec, replay *sample) {
	n := p.n(5000)
	msg := make([]byte, max(1, sh.bufBytes))
	program := func(t *core.Thread) {
		r, w := t.Pipe()
		for i := 0; i < n; i++ {
			t.Send(w, msg)
			t.Recv(r, 256)
		}
	}
	var demos []*demo.Demo
	rec = p.measure(10, time.Nanosecond, func() (time.Duration, int) {
		rt, err := core.New(runOptions(sh, true))
		if err != nil {
			return 0, 0
		}
		t0 := time.Now()
		rep, err := rt.Run(program)
		if err != nil || rep.Err != nil {
			return 0, 0
		}
		demos = append(demos, rep.Demo)
		return time.Since(t0), 2 * n
	})
	replay = p.measure(len(demos), time.Nanosecond, func() (time.Duration, int) {
		opts := core.ReplayOptions(demos[0])
		opts.RescheduleQuantum = runOptions(sh, false).RescheduleQuantum
		demos = demos[1:]
		rt, err := core.New(opts)
		if err != nil {
			return 0, 0
		}
		t0 := time.Now()
		if rep, err := rt.Run(program); err != nil || rep.Err != nil {
			return 0, 0
		}
		return time.Since(t0), 2 * n
	})
	return rec, replay
}
