package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/demo"
	"repro/internal/obs"
)

// Streaming-record equivalence and crash recovery: record a run through
// the streaming writer, then replay both the complete file and prefixes
// cut at arbitrary byte offsets (simulating a kill mid-write). Every
// recoverable prefix must replay synchronised — no hard desync, no soft
// desync, output a prefix of the full run's output.

// repeatProgram runs the generated program body reps times inside one
// execution. Each iteration builds fresh vars, so it is as re-runnable as
// the original (replay requires the identical program). While it records
// to a stream, it waits after every tenth iteration until a timed flush
// has grown the file, so the recording outlasts several flushes however
// fast the host runs it; a replay skips the waits, which are invisible.
func repeatProgram(t *testing.T, cfg genConfig, reps int) func(rt *Runtime) func(*Thread) {
	return func(rt *Runtime) func(*Thread) {
		inner := genProgram(cfg)(rt)
		path := rt.opts.RecordPath
		return func(main *Thread) {
			var size int64
			for i := 0; i < reps; i++ {
				inner(main)
				if path != "" && i%10 == 0 {
					waitFor(t, "a timed flush", func() bool {
						fi, err := os.Stat(path)
						grew := err == nil && fi.Size() > size
						if grew {
							size = fi.Size()
						}
						return grew
					})
				}
			}
		}
	}
}

func recordStreamed(t *testing.T, prog func(rt *Runtime) func(*Thread), seed uint64) (*Report, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.demo2")
	rt := newTestRuntime(t, Options{
		Strategy: demo.StrategyQueue, Seed1: seed, Seed2: seed ^ 0xfeed,
		Record: true, ReportRaces: true,
		RecordPath:          path,
		RecordFlushInterval: time.Millisecond,
	})
	rep, err := rt.Run(prog(rt))
	if err != nil {
		t.Fatalf("streamed record (seed %d): %v", seed, err)
	}
	return rep, path
}

func TestStreamingRecordReplaysExactly(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		cfg := genConfig{threads: 2 + int(seed%3), opsPer: 8 + int(seed%12), seed: seed * 2654435761}
		rec, path := recordStreamed(t, genProgram(cfg), seed)
		if rec.Demo == nil {
			t.Fatalf("seed %d: no demo read back", seed)
		}
		if rec.DemoPath != path {
			t.Fatalf("seed %d: DemoPath %q", seed, rec.DemoPath)
		}
		if rec.Demo.Truncated {
			t.Fatalf("seed %d: complete recording marked truncated", seed)
		}
		rep := runReplayed(t, demo.StrategyQueue, cfg, rec.Demo)
		if rep.SoftDesync || string(rep.Output) != string(rec.Output) || rep.Ticks != rec.Ticks {
			t.Errorf("seed %d: streamed-demo replay diverged (soft=%v ticks %d/%d)",
				seed, rep.SoftDesync, rep.Ticks, rec.Ticks)
		}
		if rep.RaceCount() != rec.RaceCount() {
			t.Errorf("seed %d: races %d != %d", seed, rep.RaceCount(), rec.RaceCount())
		}
	}
}

func TestCrashRecoveryPropertyReplaysPrefix(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		// Several background flush batches land before Close, so cuts
		// inside the file find footers.
		cfg := genConfig{threads: 3, opsPer: 60, seed: seed * 97}
		prog := repeatProgram(t, cfg, 30)
		rec, path := recordStreamed(t, prog, seed)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		recovered := 0
		// Cut at a spread of byte offsets, including just shy of EOF (mid
		// final footer) — each models the file a SIGKILL leaves behind.
		cuts := []int{len(data) - 1, len(data) - 7}
		for c := len(data) / 8; c < len(data); c += len(data) / 8 {
			cuts = append(cuts, c)
		}
		for _, cut := range cuts {
			if cut <= 0 || cut > len(data) {
				continue
			}
			d, err := demo.RecoverBytes(data[:cut])
			if err != nil {
				continue // cut before the first footer: nothing recoverable
			}
			recovered++
			if !d.Truncated {
				t.Fatalf("seed %d cut %d: torn prefix not marked truncated", seed, cut)
			}
			rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Replay: d, ReportRaces: true})
			rep, err := rt.Run(prog(rt))
			if err != nil {
				t.Fatalf("seed %d cut %d: recovered replay failed: %v", seed, cut, err)
			}
			if rep.SoftDesync {
				t.Errorf("seed %d cut %d: soft desync on recovered prefix", seed, cut)
			}
			if rep.Ticks != d.FinalTick {
				t.Errorf("seed %d cut %d: replay ran %d ticks, prefix ends at %d", seed, cut, rep.Ticks, d.FinalTick)
			}
			if !strings.HasPrefix(string(rec.Output), string(rep.Output)) {
				t.Errorf("seed %d cut %d: replay output is not a prefix of the recording's", seed, cut)
			}
		}
		if recovered == 0 {
			t.Fatalf("seed %d: no cut was recoverable; flush cadence broken?", seed)
		}
	}
}

// TestRecordPathValidation: the option plumbing fails loudly when misused.
func TestRecordPathValidation(t *testing.T) {
	if _, err := New(Options{Strategy: demo.StrategyQueue, RecordPath: "x.demo2"}); err == nil {
		t.Fatal("RecordPath without Record accepted")
	}
	if _, err := New(Options{Strategy: demo.StrategyQueue, Record: true, RecordFlushInterval: time.Second}); err == nil {
		t.Fatal("RecordFlushInterval without RecordPath accepted")
	}
	if _, err := New(Options{Strategy: demo.StrategyQueue, Record: true, RecordDiscardPassing: true}); err == nil {
		t.Fatal("RecordDiscardPassing without RecordPath accepted")
	}
	if _, err := New(Options{Strategy: demo.StrategyQueue, Record: true, RecordPath: "/nonexistent-dir/x.demo2"}); err == nil {
		t.Fatal("unwritable RecordPath accepted")
	}
}

// faultFile is a stream file that logs every call ("write", "sync",
// "close") and fails the calls a test arms.
type faultFile struct {
	demo.StreamFile
	failWrite int   // 1-based index of the write to fail; 0 fails none
	syncErr   error // returned by every Sync
	failed    chan struct{}

	mu     sync.Mutex
	ops    []string
	writes int
}

var errInjected = errors.New("injected fault")

// injectStreamFaults routes the next streaming recorder's file through ff.
func injectStreamFaults(t *testing.T, ff *faultFile) {
	t.Helper()
	ff.failed = make(chan struct{})
	demo.WrapStreamFile = func(f demo.StreamFile) demo.StreamFile {
		ff.StreamFile = f
		return ff
	}
	t.Cleanup(func() { demo.WrapStreamFile = nil })
}

func (f *faultFile) log(op string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, op)
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.writes++
	fail := f.writes == f.failWrite
	f.ops = append(f.ops, "write")
	f.mu.Unlock()
	if fail {
		close(f.failed)
		return 0, errInjected
	}
	return f.StreamFile.Write(p)
}

func (f *faultFile) Sync() error {
	f.log("sync")
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.StreamFile.Sync()
}

func (f *faultFile) Close() error {
	f.log("close")
	return f.StreamFile.Close()
}

// syncs returns the number of Sync calls and whether the last one came
// right before Close, that is, sealed the finished file.
func (f *faultFile) syncs() (n int, atClose bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, op := range f.ops {
		if op == "sync" {
			n++
		}
	}
	k := len(f.ops)
	return n, k >= 2 && f.ops[k-2] == "sync" && f.ops[k-1] == "close"
}

// guardedProgram writes one variable from two threads under a mutex: it
// never races.
func guardedProgram(rt *Runtime) func(*Thread) {
	return func(main *Thread) {
		x := NewVar(rt, "x", 0)
		mu := rt.NewMutex("mu")
		h := main.Spawn("w", func(w *Thread) {
			mu.Lock(w)
			x.Write(w, 1)
			mu.Unlock(w)
		})
		mu.Lock(main)
		x.Write(main, 2)
		mu.Unlock(main)
		main.Join(h)
	}
}

// racyProgram writes one variable from two threads with no
// synchronisation between the writes: it races under every schedule.
func racyProgram(rt *Runtime) func(*Thread) {
	return func(main *Thread) {
		x := NewVar(rt, "x", 0)
		h := main.Spawn("w", func(w *Thread) { x.Write(w, 1) })
		x.Write(main, 2)
		main.Join(h)
	}
}

// TestStreamKeepPolicy pins RecordDiscardPassing: a passing run's file is
// closed unsynced and deleted, a failing run's file, like every file with
// the option off, is sealed by exactly one sync at Close and kept; the
// demo read back into the report strict-replays either way.
func TestStreamKeepPolicy(t *testing.T) {
	cases := []struct {
		name    string
		prog    func(rt *Runtime) func(*Thread)
		discard bool
		racy    bool
	}{
		{"discard/passing", guardedProgram, true, false},
		{"discard/racy", racyProgram, true, true},
		{"keep/passing", guardedProgram, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ff := &faultFile{}
			injectStreamFaults(t, ff)
			path := filepath.Join(t.TempDir(), "run.demo2")
			opts := RecordOptions(demo.StrategyRandom, 5, 6)
			opts.RecordPath = path
			opts.RecordDiscardPassing = tc.discard
			rt := newTestRuntime(t, opts)
			rep, err := rt.Run(tc.prog(rt))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Failed() != tc.racy {
				t.Fatalf("Failed() = %v with races %v", rep.Failed(), rep.Races)
			}
			kept := !tc.discard || tc.racy
			_, statErr := os.Stat(path)
			syncs, atClose := ff.syncs()
			if kept {
				if rep.DemoPath != path || statErr != nil {
					t.Fatalf("kept recording: DemoPath %q, stat %v", rep.DemoPath, statErr)
				}
				onDisk, err := demo.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(onDisk, rep.Demo) {
					t.Fatal("kept file differs from Report.Demo")
				}
				if syncs != 1 || !atClose {
					t.Fatalf("kept recording synced %d times (last at Close: %v), want once at Close: %v", syncs, atClose, ff.ops)
				}
			} else {
				if rep.DemoPath != "" || !errors.Is(statErr, os.ErrNotExist) {
					t.Fatalf("discarded recording: DemoPath %q, stat %v", rep.DemoPath, statErr)
				}
				if syncs != 0 {
					t.Fatalf("discarded recording synced %d times: %v", syncs, ff.ops)
				}
			}
			if rep.Demo == nil {
				t.Fatal("no demo read back")
			}
			if err := rep.Demo.Validate(); err != nil {
				t.Fatalf("read-back demo invalid: %v", err)
			}
			rt2 := newTestRuntime(t, ReplayOptions(rep.Demo))
			rep2, err := rt2.Run(tc.prog(rt2))
			if err != nil || rep2.SoftDesync || rep2.Ticks != rep.Ticks || rep2.RaceCount() != rep.RaceCount() {
				t.Fatalf("strict replay: err %v soft %v ticks %d/%d races %d/%d",
					err, rep2.SoftDesync, rep2.Ticks, rep.Ticks, rep2.RaceCount(), rep.RaceCount())
			}
		})
	}
}

// TestStreamFaultsSurfaceInReport: a failed seal of a kept recording and
// a write error in a background flush each end the run with a stream
// error in Report.Err and leave the file in place, even under
// RecordDiscardPassing: the error fails the run.
func TestStreamFaultsSurfaceInReport(t *testing.T) {
	cases := []struct {
		name      string
		syncErr   error
		failWrite int
		// waitFlush holds the program until the armed background write
		// has failed, so the error comes from the flusher, not Close.
		waitFlush bool
		discard   bool
	}{
		{"sync", errInjected, 0, false, false},
		// Write 1 is the header, written when the first timed flush
		// spills the recording; write 2 is that flush's batch.
		{"background-write", nil, 2, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ff := &faultFile{syncErr: tc.syncErr, failWrite: tc.failWrite}
			injectStreamFaults(t, ff)
			path := filepath.Join(t.TempDir(), "run.demo2")
			opts := RecordOptions(demo.StrategyRandom, 5, 6)
			opts.RecordPath = path
			opts.RecordDiscardPassing = tc.discard
			opts.RecordFlushInterval = time.Millisecond
			rt := newTestRuntime(t, opts)
			rep, err := rt.Run(func(main *Thread) {
				x := main.NewAtomic64("x", 0)
				x.Add(main, 1, SeqCst) // a tick for the flusher to write
				if tc.waitFlush {
					select {
					case <-ff.failed:
					case <-time.After(5 * time.Second):
						t.Error("no background flush within 5s")
					}
				}
				x.Add(main, 1, SeqCst)
			})
			if !errors.Is(err, errInjected) || rep.Err != err ||
				!strings.Contains(err.Error(), "core: closing demo stream") {
				t.Fatalf("Run error %v, Report.Err %v; want the injected fault wrapped as a stream close error", err, rep.Err)
			}
			if rep.DemoPath != path {
				t.Fatalf("DemoPath %q, want %q", rep.DemoPath, path)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("recording not left in place: %v", err)
			}
		})
	}
}

// streamRun records prog with the stream writer at path under the given
// keep policy and flush interval. The reschedule watchdog is off, so
// equal seeds give equal recordings.
func streamRun(t *testing.T, prog func(rt *Runtime) func(*Thread), path string, discard bool, flush time.Duration, mx *obs.Metrics) *Report {
	t.Helper()
	opts := RecordOptions(demo.StrategyRandom, 5, 6)
	opts.RecordPath = path
	opts.RecordDiscardPassing = discard
	opts.RecordFlushInterval = flush
	opts.RescheduleQuantum = -1
	opts.Metrics = mx
	rt := newTestRuntime(t, opts)
	rep, err := rt.Run(prog(rt))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// waitFor polls cond from inside a running program until it holds or 5s
// pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Errorf("no %s within 5s", what)
			return
		}
	}
}

// checkStreamCounters compares core's stream fate counters with the
// expected counts.
func checkStreamCounters(t *testing.T, mx *obs.Metrics, kept, discarded, spilled uint64) {
	t.Helper()
	for name, want := range map[string]uint64{"demo.streams.kept": kept, "demo.streams.discarded": discarded, "demo.streams.spilled": spilled} {
		if got := mx.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// spillingProgram is guardedProgram with a pause, after its first tick,
// until a timed flush has spilled the recording to path.
func spillingProgram(t *testing.T, path string) func(rt *Runtime) func(*Thread) {
	return func(rt *Runtime) func(*Thread) {
		body := guardedProgram(rt)
		return func(main *Thread) {
			main.NewAtomic64("tick", 0).Add(main, 1, SeqCst)
			waitFor(t, "spill", func() bool { _, err := os.Stat(path); return err == nil })
			body(main)
		}
	}
}

// TestShortDiscardedRunNeverTouchesDisk: a passing run that ends before
// its first timed flush never creates its file, yet its Report.Demo is
// the demo the same run kept on disk gives.
func TestShortDiscardedRunNeverTouchesDisk(t *testing.T) {
	ff := &faultFile{}
	injectStreamFaults(t, ff)
	mx := obs.NewMetrics()
	dir := t.TempDir()
	path := filepath.Join(dir, "run.demo2")
	rep := streamRun(t, guardedProgram, path, true, time.Hour, mx)
	if ff.StreamFile != nil {
		t.Fatalf("discarded run created its file: %v", ff.ops)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) || rep.DemoPath != "" {
		t.Fatalf("discarded run: DemoPath %q, stat %v", rep.DemoPath, err)
	}
	checkStreamCounters(t, mx, 0, 1, 0)
	kept := streamRun(t, guardedProgram, filepath.Join(dir, "kept.demo2"), false, time.Hour, nil)
	if rep.Demo == nil || !reflect.DeepEqual(rep.Demo, kept.Demo) {
		t.Fatalf("in-memory discard demo differs from the kept file's:\n got %+v\nwant %+v", rep.Demo, kept.Demo)
	}
}

// TestLongRunSpillsRecoverablePrefix: once a run outlives its flush
// interval its file exists while it still runs, and each timed flush
// extends the prefix that Recover turns into a Validate-clean truncated
// demo.
func TestLongRunSpillsRecoverablePrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.demo2")
	var mids []*demo.Demo
	prog := func(rt *Runtime) func(*Thread) {
		body := guardedProgram(rt)
		return func(main *Thread) {
			x := main.NewAtomic64("x", 0)
			for flush := 0; flush < 2; flush++ {
				x.Add(main, 1, SeqCst)
				x.Add(main, 1, SeqCst)
				ticks := rt.sch.TickCount()
				waitFor(t, fmt.Sprintf("recoverable prefix of %d ticks", ticks), func() bool {
					d, err := demo.Recover(path)
					if err != nil || d.FinalTick < ticks {
						return false
					}
					mids = append(mids, d)
					return true
				})
			}
			body(main)
		}
	}
	rep := streamRun(t, prog, path, true, time.Millisecond, nil)
	if len(mids) != 2 {
		t.Fatalf("recovered %d mid-run prefixes, want 2", len(mids))
	}
	for i, d := range mids {
		if !d.Truncated || d.FinalTick >= rep.Ticks {
			t.Fatalf("mid-run prefix %d: truncated %v, final tick %d of %d", i, d.Truncated, d.FinalTick, rep.Ticks)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("mid-run prefix %d invalid: %v", i, err)
		}
	}
}

// TestDiscardLeavesNoStaleFile: a discarded run leaves nothing at its
// path, even when an earlier run left a valid recording there, which
// would otherwise pass for this run's.
func TestDiscardLeavesNoStaleFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.demo2")
	streamRun(t, racyProgram, path, true, time.Hour, nil)
	if _, err := demo.ReadFile(path); err != nil {
		t.Fatalf("earlier run's recording: %v", err)
	}
	rep := streamRun(t, guardedProgram, path, true, time.Hour, nil)
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) || rep.DemoPath != "" {
		t.Fatalf("stale recording left behind: DemoPath %q, stat %v", rep.DemoPath, err)
	}
}

// TestSpilledDiscardIsNotSynced: a discarded run that spilled is closed
// without a sync and deleted, and its demo is the one the same run kept
// on disk gives.
func TestSpilledDiscardIsNotSynced(t *testing.T) {
	ff := &faultFile{}
	injectStreamFaults(t, ff)
	mx := obs.NewMetrics()
	dir := t.TempDir()
	path := filepath.Join(dir, "run.demo2")
	rep := streamRun(t, spillingProgram(t, path), path, true, time.Millisecond, mx)
	if ff.StreamFile == nil {
		t.Fatal("run never spilled")
	}
	if syncs, _ := ff.syncs(); syncs != 0 || ff.ops[len(ff.ops)-1] != "close" {
		t.Fatalf("discarded file synced %d times or left open: %v", syncs, ff.ops)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) || rep.DemoPath != "" {
		t.Fatalf("discarded run: DemoPath %q, stat %v", rep.DemoPath, err)
	}
	checkStreamCounters(t, mx, 0, 1, 1)
	keptPath := filepath.Join(dir, "kept.demo2")
	kept := streamRun(t, spillingProgram(t, keptPath), keptPath, false, time.Millisecond, nil)
	if rep.Demo == nil || !reflect.DeepEqual(rep.Demo, kept.Demo) {
		t.Fatal("discarded demo differs from the kept file's")
	}
}

// TestLongSingleThreadQueueStreamReplays: one thread scheduled alone for
// just over 1Mi ticks makes a QUEUE run longer than rle's per-stream
// decode floor. The writer splits it across queue chunks, so the
// recording decodes whether it stays in memory, is streamed and kept, or
// is streamed and discarded, each in one flush. The three demos are
// equal, and the demo strict-replays.
func TestLongSingleThreadQueueStreamReplays(t *testing.T) {
	const ticks = 1<<20 + 16
	prog := func(rt *Runtime) func(*Thread) {
		return func(main *Thread) {
			for i := 0; i < ticks; i++ {
				main.Yield()
			}
		}
	}
	dir := t.TempDir()
	var rec *Report
	for _, tc := range []struct {
		name, path string
		discard    bool
	}{
		{"memory", "", false},
		{"kept", filepath.Join(dir, "kept.demo2"), false},
		{"discarded", filepath.Join(dir, "discarded.demo2"), true},
	} {
		opts := RecordOptions(demo.StrategyQueue, 1, 2)
		opts.MaxTicks = 2 * ticks
		opts.RecordPath, opts.RecordDiscardPassing = tc.path, tc.discard
		if tc.path != "" {
			opts.RecordFlushInterval = time.Hour
		}
		rt := newTestRuntime(t, opts)
		rep, err := rt.Run(prog(rt))
		if err != nil {
			t.Fatalf("%s: record: %v", tc.name, err)
		}
		if rep.Ticks <= 1<<20 || rep.Demo.FinalTick != rep.Ticks {
			t.Fatalf("%s: recorded %d ticks, demo final tick %d", tc.name, rep.Ticks, rep.Demo.FinalTick)
		}
		if rec == nil {
			rec = rep
		} else if !reflect.DeepEqual(rep.Demo, rec.Demo) {
			t.Fatalf("%s: demo differs from the in-memory recording's", tc.name)
		}
	}
	replay := ReplayOptions(rec.Demo)
	replay.MaxTicks = 2 * ticks
	rt := newTestRuntime(t, replay)
	rep, err := rt.Run(prog(rt))
	if err != nil || rep.SoftDesync || rep.Ticks != rec.Ticks {
		t.Fatalf("strict replay: err %v soft %v ticks %d/%d", err, rep.SoftDesync, rep.Ticks, rec.Ticks)
	}
}
