package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/demo"
	"repro/internal/tsan"
)

func TestPresetOptionsValidate(t *testing.T) {
	presets := map[string]Options{
		"record-random":      RecordOptions(demo.StrategyRandom, 1, 2),
		"record-queue":       RecordOptions(demo.StrategyQueue, 3, 4),
		"replay":             ReplayOptions(&demo.Demo{Strategy: demo.StrategyRandom, Seed1: 1, Seed2: 2, FinalTick: 1}),
		"uncontrolled":       UncontrolledOptions(false),
		"uncontrolled-races": UncontrolledOptions(true),
	}
	for name, opts := range presets {
		if err := opts.Validate(); err != nil {
			t.Errorf("%s: preset does not validate: %v", name, err)
		}
	}
}

func TestRecordOptionsFields(t *testing.T) {
	opts := RecordOptions(demo.StrategyPCT, 7, 11)
	if !opts.Record || opts.Replay != nil {
		t.Fatalf("RecordOptions: Record=%v Replay=%v", opts.Record, opts.Replay)
	}
	if opts.Strategy != demo.StrategyPCT || opts.Seed1 != 7 || opts.Seed2 != 11 {
		t.Fatalf("RecordOptions did not carry strategy/seeds: %+v", opts)
	}
	if !opts.ReportRaces {
		t.Fatal("RecordOptions must report races")
	}
}

func TestReplayOptionsFields(t *testing.T) {
	d := &demo.Demo{Strategy: demo.StrategyQueue, Seed1: 9, Seed2: 10, FinalTick: 3}
	opts := ReplayOptions(d)
	if opts.Replay != d {
		t.Fatal("ReplayOptions dropped the demo")
	}
	if opts.Strategy != demo.StrategyQueue {
		t.Fatalf("ReplayOptions strategy = %v, want queue", opts.Strategy)
	}
	if opts.Seed1 != 0 || opts.Seed2 != 0 {
		t.Fatal("ReplayOptions must leave seeds to the demo header")
	}
}

func TestUncontrolledOptionsFields(t *testing.T) {
	if opts := UncontrolledOptions(false); !opts.Uncontrolled || opts.DisableRaces || !opts.ReportRaces {
		t.Fatalf("UncontrolledOptions(false) = %+v", opts)
	}
	if opts := UncontrolledOptions(true); !opts.Uncontrolled || !opts.DisableRaces || opts.ReportRaces {
		t.Fatalf("UncontrolledOptions(true) = %+v", opts)
	}
}

func TestValidateRejectsFootguns(t *testing.T) {
	rec := &demo.Demo{Strategy: demo.StrategyRandom}
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"unknown strategy", Options{Strategy: demo.StrategyDelay + 1}, "unknown strategy"},
		{"uncontrolled record", Options{Uncontrolled: true, Record: true}, "cannot record or replay"},
		{"uncontrolled replay", Options{Uncontrolled: true, Replay: rec}, "cannot record or replay"},
		{"record and replay", Options{Record: true, Replay: rec}, "mutually exclusive"},
		{"strategy mismatch", Options{Strategy: demo.StrategyQueue, Replay: rec}, "recorded with strategy"},
		{"seeds during replay", Options{Strategy: demo.StrategyRandom, Replay: rec, Seed1: 5}, "must be zero during replay"},
		{"report without detection", Options{DisableRaces: true, ReportRaces: true}, "requires race detection"},
		{"negative history", Options{HistoryDepth: -1}, "negative HistoryDepth"},
		{"pct params on random", Options{Strategy: demo.StrategyRandom, PCTDepth: 3}, "only apply"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.opts)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestNewCallsValidate(t *testing.T) {
	if _, err := New(Options{Record: true, Replay: &demo.Demo{}}); err == nil {
		t.Fatal("core.New accepted Record together with Replay")
	}
}

// TestNewRejectsDepthPastLength: a pct or delay depth that needs more
// distinct change-point ticks than PCTLength holds fails Validate, and so
// core.New, where the scheduler's draw of those ticks used to spin
// forever. New runs on a goroutine so that a hang fails the test.
func TestNewRejectsDepthPastLength(t *testing.T) {
	for _, s := range []demo.Strategy{demo.StrategyPCT, demo.StrategyDelay} {
		for _, dl := range []struct {
			depth  int
			length uint64
		}{{6, 3}, {0, 1}} {
			opts := RecordOptions(s, 1, 2)
			opts.PCTDepth, opts.PCTLength = dl.depth, dl.length
			if err := opts.Validate(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("more than length %d", dl.length)) {
				t.Errorf("%v depth %d length %d: Validate = %v", s, dl.depth, dl.length, err)
			}
			errc := make(chan error, 1)
			go func() {
				_, err := New(opts)
				errc <- err
			}()
			select {
			case err := <-errc:
				if err == nil {
					t.Errorf("%v depth %d length %d: New accepted it", s, dl.depth, dl.length)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("New(%v, depth %d, length %d) still running after 5s", s, dl.depth, dl.length)
			}
		}
	}
}

func TestReportFailed(t *testing.T) {
	cases := []struct {
		name string
		rep  Report
		want bool
	}{
		{"clean", Report{}, false},
		{"err", Report{Err: errTest}, true},
		{"soft desync", Report{SoftDesync: true}, true},
		{"races", Report{Races: []tsan.Report{{Location: "x"}}}, true},
	}
	for _, tc := range cases {
		if got := tc.rep.Failed(); got != tc.want {
			t.Errorf("%s: Failed() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

var errTest = errStr("test failure")

type errStr string

func (e errStr) Error() string { return string(e) }
