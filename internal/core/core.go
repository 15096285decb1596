// Package core is the public façade of tsanrec: the Go analogue of the
// paper's tsan11rec tool. Programs under test are written against this
// API — Thread spawn/join, Mutex, Cond, Atomic64, race-checked Var data,
// fences, and environment syscall wrappers — and every API call is exactly
// one instrumented visible operation, the role compile-time instrumentation
// plays in the original tool.
//
// A Runtime combines the controlled scheduler (internal/sched), the
// tsan11-model race detector (internal/tsan), the sparse record/replay
// engine (internal/demo) and a virtual environment (internal/env).
//
// Run runs the main thread on the goroutine that calls it and each spawned
// thread on a goroutine of its own. The watchdog that forces reschedules
// and declares deadlocks is a timer, not a thread (§3.3).
//
// Configuration goes through Options, normally built with one of the
// preset constructors — RecordOptions (controlled strategy + recording),
// ReplayOptions (replay a demo, strategy and seeds from its header) and
// UncontrolledOptions (the raw-Go-scheduler baselines) — with individual
// fields adjusted afterwards as needed. core.New validates the options
// (Options.Validate), so incompatible combinations fail at construction
// rather than silently changing the execution. Usage:
//
//	rt, _ := core.New(core.RecordOptions(demo.StrategyRandom, 1, 2))
//	report, err := rt.Run(func(t *core.Thread) { ... })
//	// report.Demo can later be replayed:
//	rt2, _ := core.New(core.ReplayOptions(report.Demo))
package core

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/demo"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/tsan"
)

// TID aliases the scheduler thread id.
type TID = sched.TID

// Report summarises one execution.
type Report struct {
	// Races are the distinct data races detected.
	Races []tsan.Report
	// Ticks is the number of visible operations executed.
	Ticks uint64
	// Threads is the total number of threads created.
	Threads int
	// Demo is the recording (nil unless Options.Record).
	Demo *demo.Demo
	// DemoPath is the streamed recording's file path (set only with
	// Options.RecordPath, and empty once Options.RecordDiscardPassing has
	// discarded a passing run's recording). A kept file is complete and
	// sealed once Run returns; if the process dies mid-run instead,
	// demo.Recover reconstructs its longest valid prefix.
	DemoPath string
	// Leaked counts threads still live when main returned.
	Leaked int
	// SoftDesync reports strict replay output diverging from the recording
	// while all hard constraints held (§4). A tolerant replay's drifting
	// output is a divergence instead.
	SoftDesync bool
	// Diverged marks where a tolerant replay (Options.ReplayMode) left the
	// demo's constraints and went live. Nil for strict replays and for
	// tolerant replays that stayed synchronised end to end. Divergence is
	// not a failure: under ReplayTolerantRecord the divergent execution is
	// re-recorded into Demo as a new strict-replayable demo.
	Diverged *demo.Diverged
	// Output is the program's collected observable output.
	Output []byte
	// Err is the abnormal-termination cause: a *demo.DesyncError for hard
	// desynchronisation, *sched.DeadlockError, *sched.StalledError, or an
	// application panic.
	Err error
	// RecentSchedule is the scheduler's flight recorder at termination
	// (the last ≤64 ticks), populated when Err is non-nil to aid desync
	// diagnosis.
	RecentSchedule []string
	// Forensics is the desync report, populated whenever the run ended in
	// a hard desynchronisation (Err is a *demo.DesyncError) or a soft one
	// (SoftDesync). It names the divergence point, diffs the recorded
	// expectation against what the replay observed, and carries the demo
	// cursor and the trace ring's tail.
	Forensics *obs.Forensics
}

// RaceCount returns the number of distinct races in the report.
func (r *Report) RaceCount() int { return len(r.Races) }

// Failed reports whether the execution counts as a failure for hunting and
// triage purposes: it terminated abnormally (Err, which includes hard
// desynchronisation), soft-desynchronised, or detected data races. Drivers
// use it instead of re-deriving the three checks.
func (r *Report) Failed() bool {
	return r.Err != nil || r.SoftDesync || len(r.Races) > 0
}

// Runtime is one instrumented execution context.
type Runtime struct {
	opts  Options
	sch   *sched.Scheduler
	detMu sync.Mutex // serialises detector access from invisible operations
	det   *tsan.Detector
	rec   *demo.Recorder
	rep   *demo.Replayer
	world *env.World

	// Observability. tr and mx are nil-safe; obsOn gates the per-critical
	// event assembly so an unobserved run pays a single bool check. The
	// opCount handles are resolved once here so the per-operation metrics
	// bump is a lock-free atomic add.
	tr      *obs.Tracer
	mx      *obs.Metrics
	obsOn   bool
	opCount [obs.NumKinds]*obs.Counter

	cpu cpuToken // rr-model sequentialisation token

	// dbg, when non-nil, is the debugger rendezvous: criticalOp calls its
	// beforeOp hook at every visible-op classification point. widx, when
	// non-nil, indexes Var write sites for reverse-continue targets. Both
	// nil outside debug sessions, costing one pointer check per operation.
	dbg  *DebugControl
	widx *tsan.WriteIndex

	mu       sync.Mutex
	handlers map[int32]signalHandler // made, and the world's signal sink registered, when the first handler is bound
	sigTID   TID                     // thread that receives external signals
	unc      uncontrolledState       // an int32 beside sigTID keeps Runtime in its 768 B size class
	output   []byte
	held     map[TID]*Thread // threads that ended with uncommitted output
	nextSync uint64          // mutex/cond id allocator
	appErr   error           // first application panic
	arena    arenaState
	locks    []*Mutex // every instrumented mutex, for held-lock dumps

	uthreads map[TID]*Thread // uncontrolled runs only

	wg sync.WaitGroup
}

type signalHandler func(t *Thread, sig int32)

// New constructs a Runtime.
func New(opts Options) (*Runtime, error) {
	if opts.MaxTicks == 0 {
		opts.MaxTicks = 50_000_000
	}
	if opts.WallTimeout == 0 {
		opts.WallTimeout = 30 * time.Second
	}
	if opts.RescheduleQuantum == 0 {
		opts.RescheduleQuantum = 2 * time.Millisecond
	}
	if opts.SpawnDelay == 0 {
		opts.SpawnDelay = 100 * time.Microsecond
	}
	if opts.Policy.Name == "" {
		opts.Policy = PolicySparse
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	rt := &Runtime{
		opts:  opts,
		tr:    opts.Trace,
		mx:    opts.Metrics,
		obsOn: opts.Trace != nil || opts.Metrics != nil,
		dbg:   opts.Debug,
		widx:  opts.WriteIndex,
	}
	if rt.dbg != nil {
		if err := rt.dbg.bind(rt); err != nil {
			return nil, err
		}
	}
	if opts.Metrics != nil {
		for k := obs.KindYield; k <= obs.KindOp; k++ {
			rt.opCount[k] = opts.Metrics.Counter("ops." + k.String())
		}
	}
	seed1, seed2 := opts.Seed1, opts.Seed2

	if opts.Uncontrolled {
		rt.unc.init()
		rt.uthreads = make(map[TID]*Thread)
		rt.det = tsan.New(prng.New(seed1, seed2), tsan.Options{
			HistoryDepth:          opts.HistoryDepth,
			SequentialConsistency: opts.SequentialConsistency,
		})
		rt.det.SetReporting(opts.ReportRaces)
		rt.det.SetTrace(rt.tr)
		rt.world = opts.World
		if rt.world == nil {
			rt.world = env.NewWorld(seed1 ^ seed2)
		}
		rt.world.SetTrace(rt.tr)
		rt.arena.init(opts.DeterministicAlloc)
		return rt, nil
	}

	var recorder *demo.Recorder
	var replayer *demo.Replayer
	if opts.Replay != nil {
		rp, err := demo.NewReplayer(opts.Replay, opts.ReplayMode)
		if err != nil {
			return nil, err
		}
		replayer = rp
		seed1, seed2 = opts.Replay.Seed1, opts.Replay.Seed2
		if opts.ReplayMode == demo.ReplayTolerantRecord {
			// The divergence-recording handoff is trivial by construction:
			// rather than splicing a recorded suffix onto the demo's prefix
			// at the divergence point, a full recorder runs from tick 1, so
			// the new demo is simply the recording of whatever executed —
			// bit-synchronised under strict replay whether or not the run
			// ever diverged.
			recorder = demo.NewRecorder(opts.Strategy, seed1, seed2)
		}
	} else if opts.Record {
		if opts.RecordPath != "" {
			var err error
			recorder, err = demo.NewStreamingRecorder(opts.RecordPath, opts.Strategy, seed1, seed2,
				demo.StreamOptions{FlushInterval: opts.RecordFlushInterval})
			if err != nil {
				return nil, fmt.Errorf("core: opening demo stream: %w", err)
			}
		} else {
			recorder = demo.NewRecorder(opts.Strategy, seed1, seed2)
		}
	}
	// The world must exist before the scheduler so the OnStop hook below can
	// capture it: when the scheduler stops (Stop, desync, deadlock, wall
	// timeout) it interrupts the world's waiter queues, unblocking threads
	// parked in virtual recv/accept so their abort can unwind immediately
	// instead of after the waiters' timeouts.
	rt.world = opts.World
	if rt.world == nil {
		rt.world = env.NewWorld(seed1 ^ seed2)
	}
	world := rt.world
	s, err := sched.New(sched.Options{
		Kind:      opts.Strategy,
		Seed1:     seed1,
		Seed2:     seed2,
		Recorder:  recorder,
		Replayer:  replayer,
		MaxTicks:  opts.MaxTicks,
		PCTDepth:  opts.PCTDepth,
		PCTLength: opts.PCTLength,
		Trace:     opts.Trace,
		Metrics:   opts.Metrics,
		OnStop:    func(error) { world.Interrupt() },
	})
	if err != nil {
		return nil, err
	}
	rt.sch = s
	rt.rec = recorder
	rt.rep = replayer
	rt.det = tsan.New(s.Rand(), tsan.Options{
		HistoryDepth:          opts.HistoryDepth,
		SequentialConsistency: opts.SequentialConsistency,
	})
	rt.det.SetReporting(opts.ReportRaces)
	rt.det.SetTrace(rt.tr)
	rt.world.SetTrace(rt.tr)
	rt.arena.init(opts.DeterministicAlloc)
	return rt, nil
}

// Program is a named program under test. Body builds the program's main
// function against a fresh Runtime; the litmus suite, explore's trials and
// the debugger's replays all call it once per run.
type Program struct {
	Name string
	Body func(rt *Runtime) func(*Thread)
}

// World returns the runtime's virtual environment, so tests and external
// drivers can set up files, listeners and injectors.
func (rt *Runtime) World() *env.World { return rt.world }

// deliverSignal routes an external signal to the designated thread if a
// handler is installed (unhandled signals are ignored, the SIG_IGN
// default our applications rely on).
func (rt *Runtime) deliverSignal(sig int32) {
	rt.mu.Lock()
	_, handled := rt.handlers[sig]
	target := rt.sigTID
	rt.mu.Unlock()
	if !handled {
		return
	}
	if rt.opts.Uncontrolled {
		rt.mu.Lock()
		th := rt.uthreads[target]
		rt.mu.Unlock()
		if th != nil {
			rt.uncontrolledDeliver(th, sig)
		}
		return
	}
	rt.sch.DeliverSignal(target, sig)
}

// Run executes fn as the main thread (TID 0) and returns the execution
// report. Threads still live when main returns are aborted, as process
// exit would.
func (rt *Runtime) Run(fn func(t *Thread)) (*Report, error) {
	if rt.opts.Uncontrolled {
		return rt.runUncontrolled(fn)
	}
	start := time.Now()
	main := newThread(rt, 0, "main")
	if rt.opts.StartupOverhead > 0 {
		spin(rt.opts.StartupOverhead)
	}
	wdog := rt.startWatchdog()

	rt.wg.Add(1)
	rt.threadBody(main, fn)
	rt.wg.Done()

	leaked := rt.sch.Shutdown()
	rt.wg.Wait()
	wdog.stop()
	rt.world.Shutdown()
	rt.flushHeldOutput()

	rep := &Report{
		Races:   rt.det.Reports(),
		Ticks:   rt.sch.TickCount(),
		Threads: rt.sch.ThreadCount(),
		Leaked:  leaked,
		Output:  rt.output,
	}
	err := rt.sch.Err()
	if errors.Is(err, sched.ErrShutdown) || errors.Is(err, sched.ErrReplayEnd) {
		err = nil // straggler cleanup, or the clean end of a truncated demo
	}
	rt.mu.Lock()
	if err == nil && rt.appErr != nil {
		err = rt.appErr
	}
	rt.mu.Unlock()
	if rt.rec != nil {
		err = rt.finishRecording(rep, err)
	}
	if rt.rep != nil {
		oc := rt.rep.Outcome(rt.sch.TickCount(), err)
		err, rep.Diverged, rep.SoftDesync = oc.Err, oc.Diverged, oc.SoftDesync
	}
	rep.Err = err
	if err != nil {
		rep.RecentSchedule = rt.sch.RecentSchedule()
	}
	rt.finishObs(rep, start)
	if rt.dbg != nil {
		rt.dbg.finish(rt, rep)
	}
	return rep, err
}

// finishRecording ends the recording and sets rep.Demo, returning err, or
// the recording's first error if err is nil. A streamed recording is
// sealed and kept at rep.DemoPath unless RecordDiscardPassing applies: a
// streaming run records and never replays, so err and the races already
// decide Report.Failed, and a passing run's recording is discarded. Every
// other recording, in memory or tolerant replay's, is discarded too:
// Discard returns its demo and leaves no file.
func (rt *Runtime) finishRecording(rep *Report, err error) error {
	path := rt.opts.RecordPath
	tick := rt.sch.TickCount()
	keep := path != "" && !(rt.opts.RecordDiscardPassing && err == nil && len(rep.Races) == 0)
	var serr error
	if !keep {
		if rep.Demo, serr = rt.rec.Discard(tick); serr != nil {
			serr = fmt.Errorf("core: closing demo stream: %w", serr)
		}
	} else if cerr := rt.rec.Close(tick); cerr != nil {
		serr = fmt.Errorf("core: closing demo stream: %w", cerr)
	} else if d, rerr := demo.ReadFile(path); rerr != nil {
		serr = fmt.Errorf("core: reading back streamed demo: %w", rerr)
	} else {
		rep.Demo = d
	}
	// A stream error fails the run; DemoPath names whatever file it left.
	if serr != nil {
		if _, statErr := os.Stat(path); statErr == nil {
			rep.DemoPath = path
		}
	} else if keep {
		rep.DemoPath = path
	}
	if err == nil {
		err = serr
	}
	return err
}

// forensicsTail is how many trailing trace events a desync report carries.
const forensicsTail = 32

// finishObs folds the run's aggregates into the metrics registry and, if
// the run desynchronised, assembles the forensics report.
func (rt *Runtime) finishObs(rep *Report, start time.Time) {
	if rt.mx != nil {
		mode := "plain"
		switch {
		case rt.rec != nil:
			mode = "record"
		case rt.rep != nil:
			mode = "replay"
		}
		rt.mx.Histogram("run.ms." + mode).Observe(float64(time.Since(start)) / float64(time.Millisecond))
		rt.mx.Histogram("run.ticks").Observe(float64(rep.Ticks))
		if n := len(rep.Races); n > 0 {
			rt.mx.Add("races.reported", uint64(n))
		}
		if rep.Demo != nil {
			for section, size := range rep.Demo.SectionSizes() {
				rt.mx.Add("demo.bytes."+section, uint64(size))
			}
		}
		if rt.opts.RecordPath != "" {
			fate := "demo.streams.discarded"
			if rep.DemoPath != "" {
				fate = "demo.streams.kept"
			}
			rt.mx.Add(fate, 1)
			if rt.rec.Spilled() {
				rt.mx.Add("demo.streams.spilled", 1)
			}
		}
	}
	var de *demo.DesyncError
	hard := errors.As(rep.Err, &de)
	if !hard && !rep.SoftDesync {
		return
	}
	if hard {
		rt.mx.Add("desync.hard", 1)
	} else {
		rt.mx.Add("desync.soft", 1)
	}
	f := &obs.Forensics{Desync: de, Soft: !hard, Events: rt.tr.Last(forensicsTail)}
	if rt.rep != nil {
		consumed, total := rt.rep.SyscallCursor()
		d := rt.rep.Demo()
		f.Cursor = obs.CursorInfo{
			ReplayTick:       rep.Ticks,
			FinalTick:        d.FinalTick,
			SyscallsConsumed: consumed,
			SyscallsTotal:    total,
			SignalsTotal:     len(d.Signals),
			AsyncsTotal:      len(d.Asyncs),
		}
	}
	rep.Forensics = f
}

// threadBody runs fn on t, recovering scheduler aborts and application
// panics, and deregistering the thread on normal completion.
func (rt *Runtime) threadBody(t *Thread, fn func(*Thread)) {
	defer func() {
		// Aborted at a Wait or panicked: output printed since the last
		// critical section was never committed. Run flushes it.
		if t.out != nil && t.out.Len() > 0 {
			rt.mu.Lock()
			if rt.held == nil {
				rt.held = make(map[TID]*Thread)
			}
			rt.held[t.id] = t
			rt.mu.Unlock()
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(sched.Abort); ok {
				return // scheduler-initiated unwind; cause is in sch.Err()
			}
			rt.mu.Lock()
			if rt.appErr == nil {
				rt.appErr = fmt.Errorf("core: thread %d (%s) panicked: %v", t.id, t.name, r)
			}
			rt.mu.Unlock()
			rt.sch.Stop(rt.appErr)
		}
	}()
	if rt.opts.Sequentialize {
		// Under the rr model instrumented execution is serialised: a
		// thread takes the virtual CPU at its first visible operation and
		// holds it between operations, releasing it only while blocked at
		// scheduling points. (Code before the first visible operation is
		// outside the instrumented window, so it does not contend — which
		// also means a thread blocking on un-instrumented state before
		// its first operation cannot wedge the virtual CPU.)
		defer rt.cpu.release(t)
	}
	fn(t)
	t.exit()
}

// watchdog is the timer that stands in for the background thread tsan
// lends the paper (§3.3): every quantum it forces a reschedule if the
// current thread is stuck in an invisible region, and it declares deadlock
// when the execution has been idle for two consecutive quanta. It also
// enforces WallTimeout, which does not count time a debugger holds the run
// paused. Each check re-arms the timer; mu orders the checks against stop.
type watchdog struct {
	rt             *Runtime
	mu             sync.Mutex
	t              *time.Timer // nil once stopped
	quantum        time.Duration
	last, deadline time.Time // the previous check, and the wall timeout
	idle           int       // consecutive idle checks
}

func (rt *Runtime) startWatchdog() *watchdog {
	now := time.Now()
	w := &watchdog{rt: rt, quantum: rt.opts.RescheduleQuantum, last: now, deadline: now.Add(rt.opts.WallTimeout)}
	if w.quantum < 0 {
		w.quantum = 100 * time.Millisecond // deadlock detection only
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.t = time.AfterFunc(w.quantum, w.check)
	return w
}

// check is one firing: it re-arms the timer unless the run is stopped or
// has hit its wall timeout.
func (w *watchdog) check() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.t == nil {
		return
	}
	rt := w.rt
	now := time.Now()
	if rt.opts.Debug != nil && rt.opts.Debug.holding() {
		// Held since the last check, to within one quantum.
		w.deadline = w.deadline.Add(now.Sub(w.last))
	}
	w.last = now
	if now.After(w.deadline) {
		rt.sch.Stop(fmt.Errorf("core: wall timeout after %v", rt.opts.WallTimeout))
		return
	}
	if rt.sch.Idle() {
		w.idle++
		if w.idle >= 2 {
			rt.sch.DeclareDeadlock()
		}
	} else {
		w.idle = 0
		if rt.opts.RescheduleQuantum > 0 {
			rt.sch.ForceReschedule()
		}
	}
	w.t.Reset(w.quantum)
}

// stop ends the checks: none starts its work after stop returns. It drops
// rt as well, because a stopped timer can stay in the Go runtime's timer
// heap, holding check, until its P next cleans the heap.
func (w *watchdog) stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.t.Stop()
	w.t, w.rt = nil, nil
}

// nextSyncID allocates a mutex/cond identifier.
func (rt *Runtime) nextSyncID() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.nextSync++
	return rt.nextSync
}

// flushHeldOutput commits the output of threads that ended without
// another critical section, in thread-id order, once every thread has
// exited. A replay stopped at the end of a truncated demo drops it
// instead: the recording that demo was cut from latched its output hash
// at that tick, before any of this output was committed.
func (rt *Runtime) flushHeldOutput() {
	rt.mu.Lock()
	held := rt.held
	rt.held = nil
	rt.mu.Unlock()
	if len(held) == 0 || errors.Is(rt.sch.Err(), sched.ErrReplayEnd) {
		return
	}
	tids := make([]TID, 0, len(held))
	for tid := range held {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		held[tid].commitOutput()
	}
}

// emit collects observable output and folds it into the record/replay
// output hashes used for soft-desync detection.
func (rt *Runtime) emit(p []byte) {
	rt.mu.Lock()
	rt.output = append(rt.output, p...)
	rt.mu.Unlock()
	if rt.rec != nil {
		rt.rec.MixOutput(p)
	}
	if rt.rep != nil {
		rt.rep.MixOutput(p)
	}
}

// cpuToken is the rr-model virtual single core: when sequentialisation is
// on, a thread holds it whenever it executes user code and releases it
// while blocked at a scheduling point.
type cpuToken struct {
	mu   sync.Mutex
	held map[TID]bool
	lk   sync.Mutex
}

func (c *cpuToken) acquire(t *Thread) {
	c.lk.Lock()
	if c.held == nil {
		c.held = make(map[TID]bool)
	}
	if c.held[t.id] {
		c.lk.Unlock()
		return
	}
	c.lk.Unlock()
	c.mu.Lock()
	c.lk.Lock()
	c.held[t.id] = true
	c.lk.Unlock()
}

func (c *cpuToken) release(t *Thread) {
	c.lk.Lock()
	if c.held != nil && c.held[t.id] {
		c.held[t.id] = false
		c.lk.Unlock()
		c.mu.Unlock()
		return
	}
	c.lk.Unlock()
}

// ThreadNames returns the debug names of every thread the run created,
// keyed by scheduler tid — the track labels for the Chrome trace export.
func (rt *Runtime) ThreadNames() map[int32]string {
	if rt.opts.Uncontrolled {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		names := make(map[int32]string, len(rt.uthreads)+1)
		names[0] = "main"
		for tid, th := range rt.uthreads {
			names[int32(tid)] = th.name
		}
		return names
	}
	return rt.sch.ThreadNames()
}
