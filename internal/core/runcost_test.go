package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/litmus"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/sched"
)

// What a run costs to set up and tear down, and what it leaves behind.
// These tests live in package core_test because they run the needle
// litmus program, the trial that racehunt's sweeps repeat by the
// thousand, and litmus imports core.

// runNeedle runs needle under opts and returns the finished Runtime and
// its report. The run must end without an error.
func runNeedle(t testing.TB, opts core.Options) (*core.Runtime, *core.Report) {
	t.Helper()
	p, _ := litmus.ByName("needle")
	rt, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(p.Body(rt))
	if err != nil {
		t.Fatalf("needle run: %v", err)
	}
	return rt, rep
}

// quiet is needle's trial configuration: random under seeds (1, 2),
// recorded in memory, with the reschedule watchdog off, so the watchdog's
// timer only checks for deadlock, every 100ms, and never fires in a run.
func quiet() core.Options {
	opts := core.RecordOptions(demo.StrategyRandom, 1, 2)
	opts.RescheduleQuantum = -1
	return opts
}

// TestNeedleRunAllocs pins the objects one needle run allocates, from
// core.New to the returned report. A run used to allocate 106: a goroutine
// for the main thread, a watchdog goroutine with its ticker, and maps and
// conds made before anything used them. Then 81, while the world built its
// fd, port, file and SYN maps, its cond and its display for every run. It
// now allocates 72; the bound leaves 10% for toolchain drift.
func TestNeedleRunAllocs(t *testing.T) {
	const want = 72
	runNeedle(t, quiet())
	got := testing.AllocsPerRun(50, func() { runNeedle(t, quiet()) })
	if got > want*1.1 {
		t.Errorf("one needle run allocates %.1f objects; want at most %d + 10%%", got, want)
	}
}

// ending is one way a run can end. run builds a Runtime, runs it to its
// end, checks that it ended that way and returns the finished Runtime.
type ending struct {
	name string
	run  func(t *testing.T) *core.Runtime
}

// endings lists the runs that must leave nothing behind: every normal way
// to record, replay or run uncontrolled, a deadlock and a wall timeout.
func endings(t *testing.T) []ending {
	dir := t.TempDir()
	streamed := func(name string, discard bool) core.Options {
		opts := quiet()
		opts.RecordPath = filepath.Join(dir, name+".demo2")
		opts.RecordDiscardPassing = discard
		return opts
	}
	recorded := func(t *testing.T) *demo.Demo {
		_, rep := runNeedle(t, quiet())
		return rep.Demo
	}
	return []ending{
		{"recorded in memory", func(t *testing.T) *core.Runtime {
			rt, rep := runNeedle(t, quiet())
			if rep.Demo == nil {
				t.Fatal("no demo")
			}
			return rt
		}},
		{"streamed and kept", func(t *testing.T) *core.Runtime {
			rt, rep := runNeedle(t, streamed("kept", false))
			if _, err := os.Stat(rep.DemoPath); err != nil {
				t.Fatalf("kept demo: %v", err)
			}
			return rt
		}},
		{"streamed and discarded", func(t *testing.T) *core.Runtime {
			rt, rep := runNeedle(t, streamed("discarded", true))
			if rep.Failed() || rep.DemoPath != "" {
				t.Fatalf("passing run kept %q (failed %v)", rep.DemoPath, rep.Failed())
			}
			return rt
		}},
		{"strict replay", func(t *testing.T) *core.Runtime {
			rt, _ := runNeedle(t, core.ReplayOptions(recorded(t)))
			return rt
		}},
		{"tolerant replay", func(t *testing.T) *core.Runtime {
			rt, rep := runNeedle(t, core.TolerantReplayOptions(recorded(t)))
			if rep.Diverged != nil {
				t.Fatalf("an unmutated demo diverged: %+v", rep.Diverged)
			}
			return rt
		}},
		{"uncontrolled", func(t *testing.T) *core.Runtime {
			rt, _ := runNeedle(t, core.UncontrolledOptions(false))
			return rt
		}},
		{"deadlock", func(t *testing.T) *core.Runtime {
			opts := quiet()
			opts.RescheduleQuantum = time.Millisecond
			rt, err := core.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			_, err = rt.Run(func(main *core.Thread) {
				m := rt.NewMutex("m")
				m.Lock(main)
				main.Join(main.Spawn("blocked", func(t *core.Thread) {
					m.Lock(t)
					m.Unlock(t)
				}))
			})
			var de *sched.DeadlockError
			if !errors.As(err, &de) {
				t.Fatalf("err = %v, want a deadlock", err)
			}
			return rt
		}},
		{"wall timeout", func(t *testing.T) *core.Runtime {
			opts := quiet()
			opts.RescheduleQuantum = time.Millisecond
			opts.WallTimeout = 20 * time.Millisecond
			rt, err := core.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			_, err = rt.Run(func(main *core.Thread) {
				for {
					main.Yield()
				}
			})
			if err == nil || !strings.Contains(err.Error(), "wall timeout") {
				t.Fatalf("err = %v, want a wall timeout", err)
			}
			return rt
		}},
	}
}

// TestRunLeavesNoGoroutine checks that every goroutine a run starts has
// exited soon after Run returns, however the run ended.
func TestRunLeavesNoGoroutine(t *testing.T) {
	for _, e := range endings(t) {
		t.Run(e.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e.run(t)
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > base {
				t.Errorf("%d goroutines before the run, %d two seconds after it", base, n)
			}
		})
	}
}
