package parsec

import (
	"testing"

	"repro/internal/apps/modes"
	"repro/internal/core"
	"repro/internal/demo"
)

func TestKernelsRunInAllModes(t *testing.T) {
	for _, b := range Benchmarks {
		for _, mode := range []string{"native", "tsan11", "rnd", "queue", "tsan11+rr"} {
			opts, err := modes.Options(mode, 9, false)
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := RunOnce(b, opts, 4, 1)
			if err != nil {
				t.Errorf("%s/%s: %v", b.Name, mode, err)
				continue
			}
			if rep.Err != nil {
				t.Errorf("%s/%s: report error %v", b.Name, mode, rep.Err)
			}
		}
	}
}

func TestKernelsAreRaceFree(t *testing.T) {
	// The kernels are correctly synchronised; the detector must agree
	// (false positives here would poison the Table 3 overhead story).
	for _, b := range Benchmarks {
		opts, _ := modes.Options("rnd", 21, true)
		_, rep, err := RunOnce(b, opts, 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if rep.RaceCount() != 0 {
			t.Errorf("%s: unexpected races: %v", b.Name, rep.Races)
		}
	}
}

func TestKernelRecordReplay(t *testing.T) {
	for _, b := range Benchmarks {
		opts, _ := modes.Options("queue+rec", 5, false)
		_, rep, err := RunOnce(b, opts, 3, 1)
		if err != nil {
			t.Fatalf("%s record: %v", b.Name, err)
		}
		_, rep2, err := RunOnce(b, core.Options{
			Strategy: demo.StrategyQueue,
			Replay:   rep.Demo,
		}, 3, 1)
		if err != nil {
			t.Fatalf("%s replay: %v", b.Name, err)
		}
		if rep2.SoftDesync {
			t.Errorf("%s: replay soft-desynchronised", b.Name)
		}
		if rep2.Ticks != rep.Ticks {
			t.Errorf("%s: replay ticks %d != recorded %d", b.Name, rep2.Ticks, rep.Ticks)
		}
	}
}

// TestKernelTicksPinned pins every kernel's visible-operation count per
// strategy and seed, with the liveness rescheduler off so the schedule is
// a function of the seeds alone. Each count is the one the kernel reads
// with a hand-written one-condvar barrier and queue, so a scheduling point
// that conc's barrier or unbounded queue adds or drops fails it.
func TestKernelTicksPinned(t *testing.T) {
	want := map[string]map[demo.Strategy][3]uint64{
		"blackscholes":  {demo.StrategyRandom: {10, 11, 10}, demo.StrategyPCT: {10, 12, 10}},
		"fluidanimate":  {demo.StrategyRandom: {5056, 5042, 5062}, demo.StrategyPCT: {4812, 4813, 4815}},
		"streamcluster": {demo.StrategyRandom: {916, 910, 920}, demo.StrategyPCT: {850, 853, 851}},
		"bodytrack":     {demo.StrategyRandom: {3521, 3538, 3530}, demo.StrategyPCT: {3441, 3944, 3661}},
		"ferret":        {demo.StrategyRandom: {3070, 3053, 3095}, demo.StrategyPCT: {4236, 3099, 3360}},
	}
	for _, b := range Benchmarks {
		for s, ticks := range want[b.Name] {
			for i, w := range ticks {
				seed := uint64(i + 1)
				opts := core.RecordOptions(s, seed, seed+7)
				opts.RescheduleQuantum = -1
				_, rep, err := RunOnce(b, opts, 3, 1)
				if err != nil {
					t.Fatalf("%s/%v/%d: %v", b.Name, s, seed, err)
				}
				if rep.Ticks != w {
					t.Errorf("%s/%v seed %d: %d ticks, want %d", b.Name, s, seed, rep.Ticks, w)
				}
			}
		}
	}
}
