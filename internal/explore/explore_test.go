package explore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/litmus"
	"repro/internal/demo"
	"repro/internal/obs"
)

// testProgram adapts a litmus program; ms-queue races under essentially
// every schedule, so small trial budgets still exercise the failure path.
func testProgram(t *testing.T, name string) Program {
	t.Helper()
	p, ok := litmus.ByName(name)
	if !ok {
		t.Fatalf("litmus program %q missing", name)
	}
	return p
}

// detRotation returns the standard deterministic trial source: the
// seed-determined strategies (random, pct, delay — queue depends on
// physical arrival order) rotating over master seed 42. Sources are
// stateful, so every sweep gets a fresh one.
func detRotation() *SeedRotation {
	return &SeedRotation{
		MasterSeed: 42,
		Strategies: []demo.Strategy{demo.StrategyRandom, demo.StrategyPCT, demo.StrategyDelay},
		PCTDepths:  []int{3, 5},
	}
}

// detCfg returns a fully seed-deterministic sweep config: detRotation as
// the source and the timing-dependent reschedule watchdog disabled.
func detCfg(t *testing.T, workers int) Config {
	return Config{
		Program:           testProgram(t, "ms-queue"),
		Source:            detRotation(),
		Trials:            18,
		Workers:           workers,
		RescheduleQuantum: -1,
	}
}

func TestSeedRotationDeterministicAndDistinct(t *testing.T) {
	rot := detRotation()
	seen := make(map[[2]uint64]bool)
	for i := 0; i < 18; i++ {
		a, b := rot.SpecAt(i), rot.SpecAt(i)
		if a != b {
			t.Fatalf("SpecAt(%d) not pure: %+v vs %+v", i, a, b)
		}
		next, ok := rot.Next()
		if !ok || next != a {
			t.Fatalf("Next() at %d returned %+v/%v, want SpecAt's %+v", i, next, ok, a)
		}
		key := [2]uint64{a.Seed1, a.Seed2}
		if seen[key] {
			t.Fatalf("trial %d repeats seeds %v", i, key)
		}
		seen[key] = true
		if a.Strategy != rot.Strategies[i%len(rot.Strategies)] {
			t.Fatalf("trial %d strategy rotation broken: %v", i, a.Strategy)
		}
		if a.Strategy == demo.StrategyRandom && a.PCTDepth != 0 {
			t.Fatalf("trial %d leaked PCT params onto random strategy", i)
		}
	}
}

// TestRunDeterministic checks the sweep invariant the dedupe pass relies
// on: outcomes are a pure function of (program, config) — the same master
// seed yields identical per-trial results whether one worker runs them in
// order or four race to completion.
func TestRunDeterministic(t *testing.T) {
	var results []*Result
	for _, workers := range []int{1, 4, 4} {
		res, err := Run(detCfg(t, workers))
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials != 18 || res.WallExpired {
			t.Fatalf("workers=%d: ran %d/18 trials, expired=%v", workers, res.Trials, res.WallExpired)
		}
		results = append(results, res)
	}
	base := results[0]
	for _, res := range results[1:] {
		if res.Failing != base.Failing || res.DedupeHits != base.DedupeHits {
			t.Errorf("failing/dedupe differ: %d/%d vs %d/%d",
				res.Failing, res.DedupeHits, base.Failing, base.DedupeHits)
		}
		for i := range base.Outcomes {
			a, b := base.Outcomes[i], res.Outcomes[i]
			a.Duration, b.Duration = 0, 0
			if a != b {
				t.Errorf("trial %d differs across runs:\n  %+v\n  %+v", i, a, b)
			}
		}
		if len(res.Failures) != len(base.Failures) {
			t.Fatalf("failure count differs: %d vs %d", len(res.Failures), len(base.Failures))
		}
		for i := range base.Failures {
			if res.Failures[i].Signature != base.Failures[i].Signature ||
				res.Failures[i].Spec != base.Failures[i].Spec ||
				res.Failures[i].Duplicates != base.Failures[i].Duplicates {
				t.Errorf("failure %d differs: %+v vs %+v", i, res.Failures[i], base.Failures[i])
			}
		}
	}
	if base.Failing == 0 {
		t.Fatal("ms-queue sweep found no failures; the determinism check is vacuous")
	}
}

func TestRunDedupesAcrossWorkers(t *testing.T) {
	res, err := Run(detCfg(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failing == 0 {
		t.Fatal("no failing trials")
	}
	if len(res.Failures)+res.DedupeHits != res.Failing {
		t.Fatalf("dedupe accounting broken: %d distinct + %d hits != %d failing",
			len(res.Failures), res.DedupeHits, res.Failing)
	}
	for i, f := range res.Failures {
		if f.Demo == nil {
			t.Errorf("failure %d (%s) has no recorded demo", i, f.Signature)
		}
		if i > 0 && f.Spec.Index <= res.Failures[i-1].Spec.Index {
			t.Errorf("failures not ordered by representative trial: %d then %d",
				res.Failures[i-1].Spec.Index, f.Spec.Index)
		}
	}
}

func TestRunWallBudget(t *testing.T) {
	cfg := detCfg(t, 2)
	cfg.Trials = 100000
	cfg.WallBudget = 50 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WallExpired {
		t.Fatal("100k trials finished inside 50ms; wall budget never triggered")
	}
	if res.Trials == 0 || res.Trials >= cfg.Trials {
		t.Fatalf("wall-capped sweep ran %d trials", res.Trials)
	}
	// Unrun slots must stay zeroed, not half-written.
	for _, o := range res.Outcomes[res.Trials:] {
		if o.Ran {
			t.Fatal("outcome past the wall cutoff marked Ran")
		}
	}
}

// slowFeedback is a source whose Feedback outlasts a short wall budget.
type slowFeedback struct{ TrialSource }

func (s slowFeedback) Feedback(fb Feedback) {
	time.Sleep(20 * time.Millisecond)
	s.TrialSource.Feedback(fb)
}

// TestRunWallBudgetExpiresIdle: the budget runs out during a feedback
// call, with the next spec generated but no trial in flight. The sweep
// must still deliver that unrun slot and return.
func TestRunWallBudgetExpiresIdle(t *testing.T) {
	cfg := detCfg(t, 1)
	cfg.Source = slowFeedback{detRotation()}
	cfg.FeedbackLag = 1
	cfg.WallBudget = 5 * time.Millisecond
	done := make(chan *Result, 1)
	go func() {
		res, err := Run(cfg)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var res *Result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after its wall budget expired")
	}
	if res == nil {
		return
	}
	if !res.WallExpired || res.Trials == 0 || len(res.Outcomes) <= res.Trials {
		t.Fatalf("expired=%v, ran %d of %d slots", res.WallExpired, res.Trials, len(res.Outcomes))
	}
	for _, o := range res.Outcomes[res.Trials:] {
		if o.Ran {
			t.Fatal("outcome past the wall cutoff marked Ran")
		}
	}
}

func TestRunMetrics(t *testing.T) {
	cfg := detCfg(t, 2)
	cfg.Trials = 6
	cfg.Metrics = obs.NewMetrics()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Metrics.CounterValue("explore.trials"); got != uint64(res.Trials) {
		t.Errorf("explore.trials = %d, want %d", got, res.Trials)
	}
	if got := cfg.Metrics.CounterValue("explore.failing"); got != uint64(res.Failing) {
		t.Errorf("explore.failing = %d, want %d", got, res.Failing)
	}
	if got := cfg.Metrics.CounterValue("explore.dedupe.hits"); got != uint64(res.DedupeHits) {
		t.Errorf("explore.dedupe.hits = %d, want %d", got, res.DedupeHits)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run accepted a config with no program")
	}
	if _, err := Run(Config{Program: testProgram(t, "ms-queue")}); err == nil {
		t.Fatal("Run accepted a config with no trial source")
	}
	// An unknown strategy is no longer a sweep-level error: the source
	// hands it out, core.New rejects it, and the trial surfaces it as a
	// config-signature failure.
	cfg := detCfg(t, 1)
	cfg.Source = &SeedRotation{Strategies: []demo.Strategy{demo.StrategyDelay + 7}}
	cfg.Trials = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failing != 1 || len(res.Failures) != 1 ||
		!strings.HasPrefix(res.Failures[0].Signature, "config:") {
		t.Fatalf("unknown strategy not surfaced as a config failure: %+v", res.Failures)
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	cfg := detCfg(t, 2)
	cfg.Trials = 9
	cfg.Minimize = true
	cfg.MinimizeBudget = 12
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("no failures to serialise")
	}
	c := res.Corpus()
	path := t.TempDir() + "/corpus.json"
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCorpusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Program != c.Program || len(back.Entries) != len(c.Entries) {
		t.Fatalf("round trip mangled corpus: %+v", back)
	}
	for i, e := range back.Entries {
		d, err := e.Decode()
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("entry %d demo invalid after round trip: %v", i, err)
		}
		if e.Signature != c.Entries[i].Signature {
			t.Fatalf("entry %d signature mangled", i)
		}
		if e.DemoPath == "" {
			t.Fatalf("entry %d: WriteFile left DemoPath empty", i)
		}
		onDisk, err := os.ReadFile(filepath.Join(filepath.Dir(path), e.DemoPath))
		if err != nil {
			t.Fatalf("entry %d: extracted demo missing: %v", i, err)
		}
		if !bytes.Equal(onDisk, e.DemoBytes) {
			t.Fatalf("entry %d: extracted demo differs from inline bytes", i)
		}
		if !strings.HasPrefix(e.Repro, "tsandebug -program "+c.Program+" -demo "+e.DemoPath) {
			t.Fatalf("entry %d: malformed repro invocation %q", i, e.Repro)
		}
		if len(e.Races) > 0 && !strings.Contains(e.Repro, "reverse-continue ") {
			t.Fatalf("entry %d: repro for a racy failure lacks reverse-continue: %q", i, e.Repro)
		}
	}
}
