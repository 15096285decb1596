package pbzip

import (
	"bytes"
	"compress/flate"
	"io"
	"strconv"
	"testing"

	"repro/internal/apps/modes"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/env"
)

func testCfg() Config {
	return Config{Workers: 3, ChunkSize: 4 << 10, Input: "/data/in", Output: "/data/out"}
}

func TestCompressAllModes(t *testing.T) {
	for _, mode := range []string{"native", "tsan11", "rnd", "queue", "tsan11+rr"} {
		opts, err := modes.Options(mode, 17, false)
		if err != nil {
			t.Fatal(err)
		}
		_, size, rep, err := RunOnce(opts, testCfg(), 48<<10)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if rep.Err != nil {
			t.Fatalf("%s: %v", mode, rep.Err)
		}
		if size == 0 || size >= 48<<10 {
			t.Errorf("%s: compressed size %d not plausible for 48KiB text", mode, size)
		}
	}
}

// TestRoundTrip verifies the parallel compressor is actually correct: the
// ordered blocks decompress back to the input.
func TestRoundTrip(t *testing.T) {
	cfg := testCfg()
	world := env.NewWorld(3)
	MakeInput(world, cfg.Input, 40<<10)
	orig, _ := world.FileContent(cfg.Input)

	opts, _ := modes.Options("queue", 3, false)
	opts.World = world
	rt, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(Compress(rt, cfg)); err != nil {
		t.Fatal(err)
	}
	out, ok := world.FileContent(cfg.Output)
	if !ok {
		t.Fatal("no output file")
	}
	var restored []byte
	for len(out) > 0 {
		if len(out) < 11 || string(out[:3]) != "BZh" {
			t.Fatalf("bad block header at %d bytes remaining", len(out))
		}
		n, err := strconv.Atoi(string(out[3:11]))
		if err != nil {
			t.Fatal(err)
		}
		block := out[11 : 11+n]
		out = out[11+n:]
		zr := flate.NewReader(bytes.NewReader(block))
		dec, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		restored = append(restored, dec...)
	}
	if !bytes.Equal(restored, orig) {
		t.Errorf("round trip mismatch: %d bytes in, %d restored", len(orig), len(restored))
	}
}

func TestCompressRecordReplay(t *testing.T) {
	cfg := testCfg()
	opts, _ := modes.Options("queue+rec", 8, false)
	_, size1, rep, err := RunOnce(opts, cfg, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	_, size2, rep2, err := RunOnce(core.Options{
		Strategy: demo.StrategyQueue,
		Replay:   rep.Demo,
	}, cfg, 32<<10)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep2.SoftDesync {
		t.Error("replay soft-desynchronised")
	}
	if size1 != size2 {
		t.Errorf("replay output size %d != recorded %d", size2, size1)
	}
}

// TestCompressTicksPinned pins the compressor's visible-operation count per
// strategy and seed, with the liveness rescheduler off so the schedule is
// a function of the seeds alone. Each count is the one the compressor
// reads with a hand-written one-condvar chunk queue, so a scheduling point
// that conc's unbounded queue adds or drops fails it.
func TestCompressTicksPinned(t *testing.T) {
	want := map[demo.Strategy][3]uint64{
		demo.StrategyRandom: {193, 211, 202},
		demo.StrategyPCT:    {217, 144, 186},
	}
	for s, ticks := range want {
		for i, w := range ticks {
			seed := uint64(i + 1)
			opts := core.RecordOptions(s, seed, seed+7)
			opts.RescheduleQuantum = -1
			_, _, rep, err := RunOnce(opts, DefaultConfig(), 64<<10)
			if err != nil {
				t.Fatalf("%v/%d: %v", s, seed, err)
			}
			if rep.Ticks != w {
				t.Errorf("%v seed %d: %d ticks, want %d", s, seed, rep.Ticks, w)
			}
		}
	}
}
