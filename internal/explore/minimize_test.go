package explore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/demo"
)

// TestMinimizerProperty is the satellite property test: for every distinct
// failure the sweep records, the minimized demo (a) still validates, (b)
// is no larger than the original, and (c) replays fully synchronised to
// the same failure signature.
func TestMinimizerProperty(t *testing.T) {
	cfg := detCfg(t, 4)
	cfg.Trials = 9
	cfg.Minimize = true
	cfg.MinimizeBudget = 40
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("sweep found no failures to minimize")
	}
	reproduced := 0
	for _, f := range res.Failures {
		if f.Minimized == nil {
			t.Fatalf("failure %q has no minimized demo", f.Signature)
		}
		if err := f.Minimized.Validate(); err != nil {
			t.Errorf("failure %q: minimized demo invalid: %v", f.Signature, err)
		}
		if f.Minimized.Size() > f.Demo.Size() {
			t.Errorf("failure %q: minimizer grew the demo: %d > %d bytes",
				f.Signature, f.Minimized.Size(), f.Demo.Size())
		}
		if f.MinimizeReplays == 0 {
			t.Errorf("failure %q: minimizer spent no replays", f.Signature)
		}
		if !f.Reproduced {
			continue
		}
		reproduced++
		if f.Minimized.FinalTick > f.Demo.FinalTick {
			t.Errorf("failure %q: minimized FinalTick grew: %d > %d",
				f.Signature, f.Minimized.FinalTick, f.Demo.FinalTick)
		}
		if sig := replaySignature(&cfg, f.Minimized); sig != f.Signature {
			t.Errorf("failure %q: minimized demo replays to %q", f.Signature, sig)
		}
	}
	if reproduced == 0 {
		t.Fatal("no failure reproduced under replay; minimization never ran")
	}
}

// TestMinimizerQueueStrategy exercises the queue stream: a queue demo's
// interleaving lives in Queue.FirstTick/Ticks, so truncation has to keep
// the 1..FinalTick schedule coverage the replayer demands. Queue replays
// are schedule-dictated and thus deterministic even though queue
// *recording* depends on physical arrival order.
func TestMinimizerQueueStrategy(t *testing.T) {
	cfg := detCfg(t, 1)
	cfg.Source = &SeedRotation{MasterSeed: 42, Strategies: []demo.Strategy{demo.StrategyQueue}}
	cfg.Trials = 4
	cfg.Minimize = true
	cfg.MinimizeBudget = 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures {
		if f.Minimized == nil || f.Minimized.Strategy != demo.StrategyQueue {
			t.Fatalf("failure %q: expected a queue demo, got %+v", f.Signature, f.Minimized)
		}
		if err := f.Minimized.Validate(); err != nil {
			t.Errorf("failure %q: minimized queue demo invalid: %v", f.Signature, err)
		}
		if f.Minimized.Size() > f.Demo.Size() {
			t.Errorf("failure %q: minimizer grew the demo", f.Signature)
		}
		if f.Reproduced {
			if sig := replaySignature(&cfg, f.Minimized); sig != f.Signature {
				t.Errorf("failure %q: minimized queue demo replays to %q", f.Signature, sig)
			}
		}
	}
}

// printingRace races a write in w against a read in main that a relaxed
// flag orders in time but not by happens-before, so every schedule fails
// with the same signature, and both threads print before and after it.
func printingRace() Program {
	return Program{Name: "printing-race", Body: func(rt *core.Runtime) func(*core.Thread) {
		return func(main *core.Thread) {
			v := core.NewVar(rt, "pr.v", 0)
			flag := main.NewAtomic64("pr.flag", 0)
			w := main.Spawn("w", func(t *core.Thread) {
				for i := 0; i < 5; i++ {
					t.Printf("w%d\n", i)
					t.Yield()
				}
				v.Write(t, 1)
				flag.Store(t, 1, core.Relaxed)
				for i := 5; i < 25; i++ {
					t.Printf("w%d\n", i)
					t.Yield()
				}
			})
			for flag.Load(main, core.Relaxed) == 0 {
				main.Printf("m\n")
				main.Yield()
			}
			main.Printf("read %d\n", v.Read(main))
			for i := 0; i < 20; i++ {
				main.Printf("m%d\n", i)
				main.Yield()
			}
			main.Join(w)
		}
	}}
}

// TestMinimizedQueuePrefixStopsAtCut: past its last tick a queue replay
// would follow physical arrival order, so a shortened queue demo must be
// marked Truncated and carry the output hash of its own prefix; then it
// replays to the failure, without soft desync, every time.
func TestMinimizedQueuePrefixStopsAtCut(t *testing.T) {
	cfg := Config{
		Program:           printingRace(),
		Source:            &SeedRotation{MasterSeed: 7, Strategies: []demo.Strategy{demo.StrategyQueue}},
		Trials:            3,
		Workers:           1,
		RescheduleQuantum: -1,
		Minimize:          true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("want the one race, got %d failures", len(res.Failures))
	}
	f := res.Failures[0]
	if !f.Reproduced {
		t.Fatalf("failure %q did not reproduce from its recording", f.Signature)
	}
	m := f.Minimized
	if m.FinalTick >= f.Demo.FinalTick {
		t.Fatalf("minimizer kept all %d ticks", f.Demo.FinalTick)
	}
	if !m.Truncated {
		t.Fatalf("shortened queue demo (%d of %d ticks) not marked Truncated", m.FinalTick, f.Demo.FinalTick)
	}
	if m.OutputHash == f.Demo.OutputHash {
		t.Fatalf("prefix kept the whole run's output hash %#x", m.OutputHash)
	}
	for i := 0; i < 10; i++ {
		rt, err := core.New(trialOptions(&cfg, core.ReplayOptions(m)))
		if err != nil {
			t.Fatal(err)
		}
		rep, _ := rt.Run(cfg.Program.Body(rt))
		if sig := signatureOf(rep); sig != f.Signature || rep.Ticks != m.FinalTick {
			t.Fatalf("replay %d: signature %q after %d ticks, want %q after %d",
				i, sig, rep.Ticks, f.Signature, m.FinalTick)
		}
	}
}

func TestTruncateDemo(t *testing.T) {
	d := &demo.Demo{
		Strategy:  demo.StrategyQueue,
		FinalTick: 10,
		Queue: demo.Queue{
			FirstTick: map[int32]uint64{0: 1, 1: 4, 2: 9},
			Ticks:     []uint64{1, 1, 1, 1, 1, 1, 1, 1, 1, 0},
		},
		Signals: []demo.SignalEvent{{TID: 1, Tick: 3, Sig: 10}, {TID: 1, Tick: 8, Sig: 10}},
		Asyncs:  []demo.AsyncEvent{{Kind: demo.AsyncReschedule, Tick: 2}, {Kind: demo.AsyncReschedule, Tick: 7}},
		Syscalls: []demo.SyscallRecord{
			{TID: 0, Kind: 1, Ret: 5, Bufs: [][]byte{[]byte("hello")}},
		},
	}
	c := d.TruncateTo(5)
	if c.FinalTick != 5 {
		t.Fatalf("FinalTick = %d", c.FinalTick)
	}
	if _, ok := c.Queue.FirstTick[2]; ok {
		t.Error("thread first scheduled past the cut survived truncation")
	}
	if len(c.Queue.Ticks) != 5 {
		t.Errorf("queue ticks not cut: %d", len(c.Queue.Ticks))
	}
	if len(c.Signals) != 1 || len(c.Asyncs) != 1 {
		t.Errorf("events past the cut survived: %d signals, %d asyncs", len(c.Signals), len(c.Asyncs))
	}
	if len(c.Syscalls) != 1 {
		t.Error("syscall records must never be dropped")
	}
	// The original must be untouched (Clone, not alias).
	if d.FinalTick != 10 || len(d.Queue.FirstTick) != 3 || len(d.Signals) != 2 {
		t.Fatalf("truncateDemo mutated its input: %+v", d)
	}
}

func TestSignatureOfStability(t *testing.T) {
	cfg := detCfg(t, 1)
	cfg.Trials = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures {
		if f.Signature == "" {
			t.Fatal("failing trial produced an empty signature")
		}
		if sig := replaySignature(&cfg, f.Demo); sig != f.Signature {
			t.Errorf("recorded signature %q but replay yields %q", f.Signature, sig)
		}
	}
}
