package game

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
)

func short() Config {
	cfg := DefaultConfig()
	cfg.PlayNanos = int64(120 * time.Millisecond)
	cfg.Entities = 32
	cfg.FrameBufferBytes = 512
	return cfg
}

func TestGamePlaysUnderControlledModes(t *testing.T) {
	for _, mode := range []string{"native", "tsan11", "queue", "rnd"} {
		out := Play(short(), DefaultServerConfig(), mode, 3)
		if out.Err != nil {
			t.Fatalf("%s: %v", mode, out.Err)
		}
		if out.Frames == 0 {
			t.Errorf("%s: display accepted no frames", mode)
		}
	}
}

func TestGameOutOfScopeForRR(t *testing.T) {
	out := Play(short(), DefaultServerConfig(), "rr", 3)
	if out.Err == nil {
		t.Fatal("rr-model unexpectedly handled the game's display ioctls")
	}
	if !strings.Contains(out.Err.Error(), "display init failed") {
		t.Errorf("unexpected failure mode: %v", out.Err)
	}
}

// TestSparseRecordReplayKeepsDisplayLive is the §5.4 headline: with ioctl
// left out of the recording, replay re-issues it natively and the display
// shows the replayed gameplay.
func TestSparseRecordReplayKeepsDisplayLive(t *testing.T) {
	cfg := short()
	opts := core.Options{Strategy: demo.StrategyQueue, Seed1: 5, Seed2: 6, Record: true, Policy: core.PolicySparse}
	rec := PlayOpts(cfg, DefaultServerConfig(), opts)
	if rec.Err != nil {
		t.Fatalf("record: %v", rec.Err)
	}
	if rec.Report.Demo == nil {
		t.Fatal("no demo")
	}
	rep := Replay(cfg, rec.Report.Demo, core.PolicySparse)
	if rep.Err != nil {
		t.Fatalf("replay: %v", rep.Err)
	}
	if rep.Report.SoftDesync {
		t.Error("replay soft-desynchronised")
	}
	if rep.Frames == 0 {
		t.Error("replayed gameplay was not displayed (no live frames)")
	}
	if string(rep.Report.Output) != string(rec.Report.Output) {
		t.Error("replay output differs from recording")
	}
}

// TestFullIoctlRecordingBlindsReplay: recording the driver traffic works
// but bloats the demo and mocks out the display during replay. The bloat
// is compared per displayed frame, as §5.4 states it: a session runs for
// a fixed wall time, so how many frames it renders, and with them the
// total demo size, varies with the host's load.
func TestFullIoctlRecordingBlindsReplay(t *testing.T) {
	cfg := short()
	sparse := PlayOpts(cfg, DefaultServerConfig(), core.Options{
		Strategy: demo.StrategyQueue, Seed1: 7, Seed2: 8, Record: true, Policy: core.PolicySparse,
	})
	if sparse.Err != nil {
		t.Fatalf("sparse record: %v", sparse.Err)
	}
	full := PlayOpts(cfg, DefaultServerConfig(), core.Options{
		Strategy: demo.StrategyQueue, Seed1: 7, Seed2: 8, Record: true, Policy: core.PolicyFull,
	})
	if full.Err != nil {
		t.Fatalf("full record: %v", full.Err)
	}
	if sparse.Frames == 0 || full.Frames == 0 {
		t.Fatalf("no frames displayed while recording: sparse %d, full %d", sparse.Frames, full.Frames)
	}
	sparsePer := float64(sparse.Report.Demo.Size()) / float64(sparse.Frames)
	fullPer := float64(full.Report.Demo.Size()) / float64(full.Frames)
	t.Logf("sparse %.1f B/frame over %d frames, full %.1f B/frame over %d frames", sparsePer, sparse.Frames, fullPer, full.Frames)
	if fullPer <= sparsePer {
		t.Errorf("full-ioctl demo (%.1f B/frame) not larger per frame than sparse (%.1f B/frame)", fullPer, sparsePer)
	}
	rep := Replay(cfg, full.Report.Demo, core.PolicyFull)
	if rep.Err != nil {
		t.Fatalf("full replay: %v", rep.Err)
	}
	if rep.Frames != 0 {
		t.Errorf("full-ioctl replay still hit the live display (%d frames)", rep.Frames)
	}
}

// TestZandronumBugRecordReplay reproduces the §5.4 experiment: play in
// network mode against a buggy server until the stale-state bug fires,
// then replay the demo offline and observe the same bug.
func TestZandronumBugRecordReplay(t *testing.T) {
	cfg := short()
	cfg.Network = true
	cfg.PlayNanos = int64(250 * time.Millisecond)
	srv := DefaultServerConfig()
	srv.Buggy = true
	srv.MapChangeEvery = 8
	srv.ExtraClients = 1

	var recorded *Outcome
	for seed := uint64(1); seed <= 5; seed++ {
		out := PlayOpts(cfg, srv, core.Options{
			Strategy: demo.StrategyQueue, Seed1: seed, Seed2: seed * 3, Record: true, Policy: core.PolicySparse,
		})
		if out.Err != nil {
			t.Fatalf("record: %v", out.Err)
		}
		if BugManifested(out.Report.Output) {
			recorded = &out
			break
		}
	}
	if recorded == nil {
		t.Fatal("bug never manifested while recording")
	}
	rep := Replay(cfg, recorded.Report.Demo, core.PolicySparse)
	if rep.Err != nil {
		t.Fatalf("replay: %v", rep.Err)
	}
	if !BugManifested(rep.Report.Output) {
		t.Error("bug did not reappear during replay")
	}
	if rep.Report.SoftDesync {
		t.Error("replay soft-desynchronised")
	}
}

// TestHealthyServerNoBug: without the seeded server bug the invariant
// never fires.
func TestHealthyServerNoBug(t *testing.T) {
	cfg := short()
	cfg.Network = true
	srv := DefaultServerConfig()
	srv.MapChangeEvery = 8
	out := Play(cfg, srv, "queue", 9)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if BugManifested(out.Report.Output) {
		t.Error("bug fired against a healthy server")
	}
}

// TestFrameCapHolds: with the 60 fps cap the game paces itself to roughly
// cap*duration frames under the queue strategy — the §5.4 playability
// criterion ("the queue scheduler could maintain the full 60 fps with
// recording enabled").
func TestFrameCapHolds(t *testing.T) {
	cfg := short()
	cfg.CapFPS = true
	cfg.PlayNanos = int64(300 * time.Millisecond)
	out := PlayOpts(cfg, DefaultServerConfig(), core.Options{
		Strategy: demo.StrategyQueue, Seed1: 2, Seed2: 4, Record: true, Policy: core.PolicySparse,
	})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	// 0.3s at 60 fps = 18 frames; allow generous slack for startup.
	frames := out.Frames
	if frames < 10 || frames > 40 {
		t.Errorf("capped play produced %d frames, want ~18", frames)
	}
	// And the capped session replays.
	rep := Replay(cfg, out.Report.Demo, core.PolicySparse)
	if rep.Err != nil {
		t.Fatalf("capped replay: %v", rep.Err)
	}
	if string(rep.Report.Output) != string(out.Report.Output) {
		t.Error("capped replay output diverged")
	}
}
