package debugger

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/litmus"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tsan"
)

// recordDemo records one run of a litmus program under the random
// strategy and returns the demo plus the recording's report.
func recordDemo(t *testing.T, progName string, s1, s2 uint64) (*demo.Demo, *core.Report) {
	t.Helper()
	p, ok := litmus.ByName(progName)
	if !ok {
		t.Fatalf("unknown litmus program %q", progName)
	}
	rt, err := core.New(core.RecordOptions(demo.StrategyRandom, s1, s2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(p.Body(rt))
	if err != nil {
		t.Fatalf("recording failed: %v", err)
	}
	return rep.Demo, rep
}

// racyDemo scans seeds for a recording of progName that detected at least
// one data race.
func racyDemo(t *testing.T, progName string) (*demo.Demo, *core.Report) {
	t.Helper()
	for seed := uint64(1); seed <= 50; seed++ {
		d, rep := recordDemo(t, progName, seed, seed*3+1)
		if len(rep.Races) > 0 {
			return d, rep
		}
	}
	t.Fatalf("no racy recording of %s in 50 seeds", progName)
	return nil, nil
}

func mustSession(t *testing.T, progName string, d *demo.Demo, every uint64) *Session {
	t.Helper()
	p, _ := litmus.ByName(progName)
	s, err := New(p, d, Options{CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestSessionNavigation(t *testing.T) {
	d, _ := recordDemo(t, "ms-queue", 7, 22)
	s := mustSession(t, "ms-queue", d, 16)

	if s.Pos() != 0 {
		t.Fatalf("initial pos = %d, want 0", s.Pos())
	}
	if p := s.Pending(); p == nil || p.Tick != 1 {
		t.Fatalf("initial pending = %v, want tick 1", p)
	}
	final := s.FinalTick()
	if final < 10 {
		t.Fatalf("suspiciously short replay: %d ticks", final)
	}

	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if s.Pos() != 1 {
		t.Fatalf("after step, pos = %d, want 1", s.Pos())
	}

	mid := final / 2
	if err := s.RunToTick(mid); err != nil {
		t.Fatal(err)
	}
	if s.Pos() != mid {
		t.Fatalf("run-to-tick %d landed at %d", mid, s.Pos())
	}
	if p := s.Pending(); p == nil || p.Tick != mid+1 {
		t.Fatalf("pending after run-to-tick = %v, want tick %d", p, mid+1)
	}
	if op, ok := s.Timeline(mid + 1); !ok || op != *s.Pending() {
		t.Fatalf("timeline op %v != pending %v", op, s.Pending())
	}

	// Reverse step restarts from a checkpoint and lands exactly one back.
	if err := s.ReverseStep(1); err != nil {
		t.Fatal(err)
	}
	if s.Pos() != mid-1 {
		t.Fatalf("after reverse-step, pos = %d, want %d", s.Pos(), mid-1)
	}

	if err := s.RunToTick(final); err != nil {
		t.Fatal(err)
	}
	if !s.AtEnd() || s.Pos() != final {
		t.Fatalf("at end: pos = %d atEnd = %v, want %d/true", s.Pos(), s.AtEnd(), final)
	}
	if err := s.Step(1); err == nil {
		t.Fatal("step at end should error")
	}

	// Time travel all the way back from the end.
	if err := s.RunToTick(0); err != nil {
		t.Fatal(err)
	}
	if s.Pos() != 0 || s.AtEnd() {
		t.Fatalf("rewind to 0: pos = %d atEnd = %v", s.Pos(), s.AtEnd())
	}
}

// TestCheckpointConvergence is the satellite property test: for
// randomized recorded runs, a replay restarted from EVERY checkpoint
// converges bit-identically — same tick, PRNG draw count, demo cursors,
// thread states and vector clocks — with the replay from tick 0.
func TestCheckpointConvergence(t *testing.T) {
	for _, prog := range []string{"ms-queue", "barrier", "mpmc-queue"} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", prog, seed), func(t *testing.T) {
				d, _ := recordDemo(t, prog, seed*41, seed*17+5)
				s := mustSession(t, prog, d, 8)
				cps := s.Checkpoints()
				if len(cps) == 0 {
					t.Fatal("no checkpoints")
				}
				if cps[0].Tick != 0 {
					t.Fatalf("first checkpoint at tick %d, want 0", cps[0].Tick)
				}
				if last := cps[len(cps)-1]; last.Tick != s.FinalTick() {
					t.Fatalf("last checkpoint at tick %d, want final tick %d", last.Tick, s.FinalTick())
				}
				for i := range cps {
					if err := s.VerifyCheckpoint(i); err != nil {
						t.Errorf("checkpoint %d (tick %d): %v", i, cps[i].Tick, err)
					}
				}
				// A second, fully independent session over the same demo
				// must produce the same race report and bit-identical
				// checkpoints (PRNG draw counts and final clocks included).
				s2 := mustSession(t, prog, d, 8)
				if a, b := renderRaces(s.Races()), renderRaces(s2.Races()); !slices.Equal(a, b) {
					t.Errorf("race reports differ across sessions:\n%v\nvs\n%v", a, b)
				}
				cps2 := s2.Checkpoints()
				if len(cps) != len(cps2) {
					t.Fatalf("checkpoint counts differ: %d vs %d", len(cps), len(cps2))
				}
				for i := range cps {
					if !cps[i].Equal(cps2[i]) {
						t.Errorf("checkpoint %d diverged across sessions: %s", i, cps[i].Diff(cps2[i]))
					}
				}
			})
		}
	}
}

// TestReverseContinueDeterministic covers the acceptance criterion:
// reverse-continue lands on the exact tick of the last write to the raced
// variable named in the forensics report, deterministically across
// repeated sessions.
func TestReverseContinueDeterministic(t *testing.T) {
	d, rep := racyDemo(t, "ms-queue")
	raced := rep.Races[0].Location

	type landing struct {
		site tsanWriteSite
		name string
	}
	var landings []landing
	for i := 0; i < 2; i++ {
		s := mustSession(t, "ms-queue", d, 16)
		if err := s.RunToTick(s.FinalTick()); err != nil {
			t.Fatal(err)
		}
		site, name, err := s.ReverseContinue("")
		if err != nil {
			t.Fatal(err)
		}
		if name != raced {
			t.Fatalf("reverse-continue resolved %q, want raced variable %q", name, raced)
		}
		if s.Pos() != site.Tick {
			t.Fatalf("landed at %d, want the write's tick %d", s.Pos(), site.Tick)
		}
		if site.Tick == 0 || site.Tick >= s.FinalTick() {
			t.Fatalf("implausible write tick %d (final %d)", site.Tick, s.FinalTick())
		}
		landings = append(landings, landing{tsanWriteSite{TID: site.TID, Tick: site.Tick}, name})
		s.Close()
	}
	if landings[0] != landings[1] {
		t.Fatalf("reverse-continue not deterministic: %+v vs %+v", landings[0], landings[1])
	}
}

// renderRaces renders race reports for order-sensitive comparison.
func renderRaces(races []tsan.Report) []string {
	out := make([]string, len(races))
	for i, r := range races {
		out[i] = r.String()
	}
	return out
}

// tsanWriteSite mirrors tsan.WriteSite as a comparable local type.
type tsanWriteSite struct {
	TID  sched.TID
	Tick uint64
}

func TestBreakpointsAndStepThread(t *testing.T) {
	d, _ := recordDemo(t, "barrier", 5, 9)
	s := mustSession(t, "barrier", d, 16)

	s.AddBreak(core.Breakpoint{Kind: obs.KindAtomicStore, TID: sched.NoTID})
	hit, err := s.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("expected an atomic_store breakpoint hit")
	}
	if p := s.Pending(); p == nil || p.Kind != obs.KindAtomicStore {
		t.Fatalf("paused at %v, want an atomic_store", p)
	}
	firstHit := s.Pos()

	// Continue progresses: the same predicate must not re-trigger on the
	// op we are already paused at.
	if _, err := s.Continue(); err != nil {
		t.Fatal(err)
	}
	if !s.AtEnd() && s.Pos() <= firstHit {
		t.Fatalf("continue did not progress past %d (pos %d)", firstHit, s.Pos())
	}

	// Breakpoint positions are deterministic: rewind and re-continue.
	if err := s.RunToTick(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Continue(); err != nil {
		t.Fatal(err)
	}
	if s.Pos() != firstHit {
		t.Fatalf("breakpoint re-hit at %d, want %d", s.Pos(), firstHit)
	}

	if err := s.DeleteBreak(0); err != nil {
		t.Fatal(err)
	}

	// step-thread: advance to the next op of the main thread (tid 0).
	if err := s.StepThread(0); err != nil {
		t.Fatal(err)
	}
	if !s.AtEnd() {
		if p := s.Pending(); p == nil || p.TID != 0 {
			t.Fatalf("step-thread 0 paused at %v", p)
		}
	}
}

func TestTraceWindow(t *testing.T) {
	d, _ := recordDemo(t, "ms-queue", 3, 8)
	s := mustSession(t, "ms-queue", d, 16)
	final := s.FinalTick()
	if final < 20 {
		t.Skipf("replay too short for a trace window: %d ticks", final)
	}

	if err := s.RunToTick(20); err != nil {
		t.Fatal(err)
	}
	// Served from the live ring: the session traced from tick 1.
	res, err := s.Trace(5, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted {
		t.Fatal("tiny window reported evicted")
	}
	if len(res.Events) == 0 {
		t.Fatal("no events in window 5..15")
	}
	for _, ev := range res.Events {
		if ev.Tick < 5 || ev.Tick > 15 {
			t.Fatalf("event outside window: %v", ev)
		}
	}

	// A window beyond the live position forces a dedicated collection run
	// and must not move the session.
	res2, err := s.Trace(18, final)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pos() != 20 {
		t.Fatalf("trace moved the session to %d", s.Pos())
	}
	if len(res2.Events) == 0 {
		t.Fatal("no events in dedicated-run window")
	}
	for _, ev := range res2.Events {
		if ev.Tick < 18 || ev.Tick > final {
			t.Fatalf("event outside window: %v", ev)
		}
	}
}

func TestStateDump(t *testing.T) {
	d, _ := recordDemo(t, "ms-queue", 11, 2)
	s := mustSession(t, "ms-queue", d, 16)
	if err := s.RunToTick(min(25, s.FinalTick()/2)); err != nil {
		t.Fatal(err)
	}
	st, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pos != s.Pos() || st.AtEnd {
		t.Fatalf("state pos = %d atEnd = %v, want %d/false", st.Pos, st.AtEnd, s.Pos())
	}
	if len(st.Threads) == 0 || len(st.Clocks) == 0 {
		t.Fatalf("state missing threads/clocks: %+v", st)
	}
}

func TestExecutorScript(t *testing.T) {
	d, rep := racyDemo(t, "ms-queue")
	s := mustSession(t, "ms-queue", d, 16)
	var out strings.Builder
	ex := &Executor{S: s, W: &out}

	script := []string{
		"info",
		"run-to-tick 10",
		"state",
		"break kind=atomic_rmw",
		"breaks",
		"continue",
		"delete 0",
		"reverse-continue",
		"trace 1..8",
		"checkpoints",
		"verify 0",
		"writes",
	}
	for _, line := range script {
		if quit, err := ex.Exec(line); err != nil || quit {
			t.Fatalf("%q: quit=%v err=%v\noutput:\n%s", line, quit, err, out.String())
		}
	}
	got := out.String()
	for _, want := range []string{
		"program   ms-queue",
		"race 0    " + rep.Races[0].String(),
		"at tick 10",
		"threads:",
		"breakpoint 0: kind=atomic_rmw",
		"last write to",
		"trace ticks 1..8",
		"checkpoint 0 converges bit-identically",
		"written variables:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("transcript missing %q\noutput:\n%s", want, got)
		}
	}
	if quit, _ := ex.Exec("quit"); !quit {
		t.Fatal("quit did not quit")
	}
	if _, err := ex.Exec("bogus-command"); err == nil {
		t.Fatal("unknown command did not error")
	}
}
