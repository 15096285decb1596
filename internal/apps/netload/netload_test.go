package netload

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/demo"
)

func small() Config {
	return Config{Port: 90, Workers: 3, Batch: 16, StatsCells: 4}
}

func smallSpec(conns int) LoadSpec {
	return LoadSpec{
		Conns: conns,
		// 200ms virtual between arrivals: even the small test models
		// conns/5 virtual seconds of traffic.
		MeanGap: 200 * time.Millisecond,
		Paths:   50,
		Timeout: 20 * time.Second,
	}
}

func TestScenarioServesLoad(t *testing.T) {
	for _, mode := range []string{"queue", "rnd"} {
		out := RunScenario(small(), smallSpec(50), mode, 1, false, "")
		if out.Err != nil {
			t.Fatalf("%s: %v", mode, out.Err)
		}
		if out.Load.Completed != 50 {
			t.Fatalf("%s: completed %d/50 (%d errors)", mode, out.Load.Completed, out.Load.Errors)
		}
		if out.Load.Virtual < 2*time.Second {
			t.Errorf("%s: only %v of virtual traffic modelled", mode, out.Load.Virtual)
		}
		if out.Load.Virtual < 4*out.Load.Wall {
			t.Errorf("%s: virtual time %v did not outrun wall clock %v", mode, out.Load.Virtual, out.Load.Wall)
		}
	}
}

func TestScenarioCompressesVirtualHours(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-virtual-hour scenario")
	}
	// 600 connections averaging 18 virtual seconds apart = three virtual
	// hours of traffic; the acceptance bar is wall-clock seconds.
	spec := LoadSpec{Conns: 600, MeanGap: 18 * time.Second, Paths: 100, Timeout: 30 * time.Second}
	out := RunScenario(small(), spec, "queue", 2, false, "")
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Load.Completed != spec.Conns {
		t.Fatalf("completed %d/%d (%d errors)", out.Load.Completed, spec.Conns, out.Load.Errors)
	}
	if out.Load.Virtual < 2*time.Hour {
		t.Errorf("modelled only %v of virtual traffic, want hours", out.Load.Virtual)
	}
	if out.Load.Wall > time.Minute {
		t.Errorf("three virtual hours took %v of wall clock", out.Load.Wall)
	}
}

func TestScenarioStreamedRecordThenReplay(t *testing.T) {
	cfg := small()
	path := filepath.Join(t.TempDir(), "netload.demo")
	rec := RunScenario(cfg, smallSpec(40), "queue+rec", 7, true, path)
	if rec.Err != nil {
		t.Fatalf("record: %v", rec.Err)
	}
	if rec.Load.Completed != 40 {
		t.Fatalf("record: completed %d/40", rec.Load.Completed)
	}
	// The streamed file and the in-memory demo describe the same run.
	d, err := demo.ReadFile(path)
	if err != nil {
		t.Fatalf("reading streamed demo: %v", err)
	}
	rep := Replay(cfg, d, true)
	if rep.Err != nil {
		t.Fatalf("replay: %v", rep.Err)
	}
	if rep.Report.SoftDesync {
		t.Error("replay soft-desynchronised")
	}
	if rep.Races() != rec.Races() {
		t.Errorf("replay races %d != recorded %d", rep.Races(), rec.Races())
	}
}

// A scenario whose recording cannot be opened must still shut its world
// down, or the virtual-time advancer outlives it.
func TestFailedScenarioLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	path := filepath.Join(t.TempDir(), "missing", "netload.demo2")
	if out := RunScenario(small(), smallSpec(5), "queue+rec", 1, false, path); out.Err == nil {
		t.Fatal("recording into a missing directory succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the failed scenario, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
