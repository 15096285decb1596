package explore

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// coinLoads is how long heads runs: enough visible operations that a
// heads trial is still running when the tails trials after it finish.
const coinLoads = 2000

// coin is a program whose run length follows a coin its schedule tosses:
// main spawns a thread that stores 1 and then loads the flag once, so the
// coin is heads when the thread ran first. Under random trials with the
// reschedule watchdog off the schedule, and so the coin, is a function of
// the trial's seeds. Heads runs coinLoads more loads, so the trials of a
// sweep finish out of index order.
var coin = Program{Name: "coin", Body: func(rt *core.Runtime) func(*core.Thread) {
	flag := rt.NewAtomic64("coin.flag", 0)
	return func(main *core.Thread) {
		h := main.Spawn("tosser", func(t *core.Thread) { flag.Store(t, 1, core.SeqCst) })
		if flag.Load(main, core.SeqCst) == 1 {
			for i := 0; i < coinLoads; i++ {
				flag.Load(main, core.Relaxed)
			}
		}
		main.Join(h)
	}
}}

// loggingSource wraps a source and logs every call the engine makes to
// it. With unanswered > 0 it also declines while that many of the specs it
// served await their feedback, the way a source out of ideas does.
type loggingSource struct {
	src              TrialSource
	unanswered       int
	served, answered int
	log              []string
}

func (s *loggingSource) Next() (TrialSpec, bool) {
	if s.unanswered > 0 && s.served-s.answered >= s.unanswered {
		s.log = append(s.log, "next: declined")
		return TrialSpec{}, false
	}
	spec, ok := s.src.Next()
	if ok {
		s.served++
	}
	s.log = append(s.log, fmt.Sprintf("next: %s %v", spec.Key(), ok))
	return spec, ok
}

func (s *loggingSource) Feedback(fb Feedback) {
	s.answered++
	var ticks uint64
	if fb.Demo != nil {
		ticks = fb.Demo.FinalTick
	}
	s.log = append(s.log, fmt.Sprintf("feedback: trial %d %s failed=%v ticks=%d",
		fb.Spec.Index, fb.Spec.Key(), fb.Failed, ticks))
	s.src.Feedback(fb)
}

// TestSourceCallsIdenticalAcrossWorkers pins the engine's proof
// obligation directly: the source sees one and the same sequence of Next
// and Feedback calls at 1, 2 and 8 workers, though at 2 and 8 the coin's
// heads trials finish after the tails trials behind them. Delivering
// feedback in completion order fails it, and so does refilling the lag
// window only after a whole run of buffered completions. The declining
// source pins that a source which declined is asked again only after its
// next feedback.
func TestSourceCallsIdenticalAcrossWorkers(t *testing.T) {
	for _, unanswered := range []int{0, 3} {
		t.Run(fmt.Sprintf("unanswered=%d", unanswered), func(t *testing.T) {
			var base []string
			for _, workers := range []int{1, 2, 8} {
				src := &loggingSource{src: &SeedRotation{MasterSeed: 9}, unanswered: unanswered}
				res, err := Run(Config{Program: coin, Source: src, Trials: 64, Workers: workers,
					RescheduleQuantum: -1})
				if err != nil {
					t.Fatal(err)
				}
				if res.Trials != 64 || res.Failing != 0 {
					t.Fatalf("workers=%d: ran %d of 64 trials, %d failing", workers, res.Trials, res.Failing)
				}
				if workers == 1 {
					heads := 0
					for _, o := range res.Outcomes {
						if o.Ticks > coinLoads {
							heads++
						}
					}
					if heads < 8 || heads > 56 {
						t.Fatalf("%d of 64 trials came up heads; too few of one kind to finish out of order", heads)
					}
					base = src.log
					continue
				}
				if len(src.log) != len(base) {
					t.Errorf("workers=%d: %d source calls, 1 worker made %d", workers, len(src.log), len(base))
				}
				for i := range min(len(src.log), len(base)) {
					if src.log[i] != base[i] {
						t.Fatalf("workers=%d: source call %d differs:\n  1 worker: %s\n  %d workers: %s",
							workers, i, base[i], workers, src.log[i])
					}
				}
			}
		})
	}
}
