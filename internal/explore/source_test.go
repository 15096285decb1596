package explore

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/demo"
)

// fakeSource hands out specs with a recognisable seed namespace and
// records the feedback it receives.
type fakeSource struct {
	tag      uint64
	n        int
	limit    int // 0 = unlimited
	feedback []Feedback
}

func (s *fakeSource) Next() (TrialSpec, bool) {
	if s.limit > 0 && s.n >= s.limit {
		return TrialSpec{}, false
	}
	spec := TrialSpec{Strategy: demo.StrategyRandom, Seed1: s.tag, Seed2: uint64(s.n)}
	s.n++
	return spec, true
}

func (s *fakeSource) Feedback(fb Feedback) { s.feedback = append(s.feedback, fb) }

func TestWeightedSourceInterleavesByWeight(t *testing.T) {
	a, b := &fakeSource{tag: 1}, &fakeSource{tag: 2}
	w, err := NewWeightedSource([]TrialSource{a, b}, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for i := 0; i < 9; i++ {
		spec, ok := w.Next()
		if !ok {
			t.Fatalf("draw %d: weighted source declined with non-exhausted children", i)
		}
		got = append(got, spec.Seed1)
	}
	want := []uint64{1, 1, 2, 1, 1, 2, 1, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaving %v, want %v", got, want)
		}
	}
}

func TestWeightedSourceSkipsDecliningChild(t *testing.T) {
	a := &fakeSource{tag: 1, limit: 2}
	b := &fakeSource{tag: 2, limit: 3}
	w, err := NewWeightedSource([]TrialSource{a, b}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for {
		spec, ok := w.Next()
		if !ok {
			break
		}
		got = append(got, spec.Seed1)
	}
	// a and b alternate until a dries up at two trials, then b alone,
	// then full exhaustion.
	want := []uint64{1, 2, 1, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("drew %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drew %v, want %v", got, want)
		}
	}
	// Feedback reaches every child, exhausted or not.
	w.Feedback(Feedback{Signature: "x"})
	if len(a.feedback) != 1 || len(b.feedback) != 1 {
		t.Fatalf("feedback not broadcast: a=%d b=%d", len(a.feedback), len(b.feedback))
	}
}

func TestWeightedSourceRejectsBadShape(t *testing.T) {
	if _, err := NewWeightedSource(nil, nil); err == nil {
		t.Fatal("accepted empty source list")
	}
	if _, err := NewWeightedSource([]TrialSource{&fakeSource{}}, []int{0}); err == nil {
		t.Fatal("accepted non-positive weight")
	}
	if _, err := NewWeightedSource([]TrialSource{&fakeSource{}}, []int{1, 2}); err == nil {
		t.Fatal("accepted mismatched weights")
	}
}

// mutableDemo returns a small valid random-strategy demo every operator
// chain can act on (truncate-extend and inject-resched always apply).
func mutableDemo(seed uint64) *demo.Demo {
	return &demo.Demo{Strategy: demo.StrategyRandom, Seed1: seed, Seed2: seed ^ 0xff, FinalTick: 12}
}

func TestMutationQueueLifecycle(t *testing.T) {
	q := &MutationQueue{Seed: 7}
	if _, ok := q.Next(); ok {
		t.Fatal("empty queue emitted a mutant")
	}
	// A failing fresh trial's recording becomes an ancestor.
	q.Feedback(Feedback{
		Spec:      TrialSpec{Index: 0, Strategy: demo.StrategyRandom},
		Failed:    true,
		Signature: "race:a",
		Demo:      mutableDemo(1),
	})
	spec, ok := q.Next()
	if !ok {
		t.Fatal("queue with an ancestor declined")
	}
	if spec.Mutant == nil || spec.Mutant.Ancestor != "race:a" || len(spec.Mutant.Ops) != 1 {
		t.Fatalf("mutant lineage wrong: %+v", spec.Mutant)
	}
	if spec.Strategy != demo.StrategyRandom || spec.Seed1 != 1 {
		t.Fatalf("mutant spec does not mirror the demo header: %+v", spec)
	}
	if err := spec.Mutant.Demo.Validate(); err != nil {
		t.Fatalf("emitted mutant invalid: %v", err)
	}
	// A failing mutant with a fresh signature restarts a chain: its ops
	// accumulate.
	q.Feedback(Feedback{
		Spec:      TrialSpec{Index: 1, Mutant: spec.Mutant},
		Failed:    true,
		Signature: "race:b",
		Demo:      mutableDemo(2),
	})
	deeper := false
	for i := 0; i < 8; i++ {
		s, ok := q.Next()
		if !ok {
			t.Fatal("queue declined mid-test")
		}
		if len(s.Mutant.Ops) == 2 && s.Mutant.Ancestor == "race:b" {
			deeper = true
		}
	}
	if !deeper {
		t.Fatal("adopted mutant never produced a depth-2 chain")
	}
	// A repeat signature is not re-adopted.
	q2 := &MutationQueue{Seed: 7}
	q2.Feedback(Feedback{Spec: TrialSpec{Index: 0}, Failed: true, Signature: "race:a", Demo: mutableDemo(1)})
	q2.Feedback(Feedback{Spec: TrialSpec{Index: 1}, Failed: true, Signature: "race:a", Demo: mutableDemo(9)})
	if len(q2.ancestors) != 1 {
		t.Fatalf("duplicate signature adopted: %d ancestors", len(q2.ancestors))
	}
}

func TestMutationQueueBudgetAndChainCap(t *testing.T) {
	q := &MutationQueue{Seed: 3, Budget: 2}
	q.SeedDemo(mutableDemo(5), "seeded")
	for i := 0; i < 2; i++ {
		if _, ok := q.Next(); !ok {
			t.Fatalf("budgeted queue declined at emission %d", i)
		}
	}
	if _, ok := q.Next(); ok {
		t.Fatal("queue exceeded its budget")
	}
	// Chain cap: a mutant already at MaxChain ops is not re-adopted even
	// with a fresh signature.
	q2 := &MutationQueue{Seed: 3, MaxChain: 1}
	q2.SeedDemo(mutableDemo(5), "root")
	spec, _ := q2.Next()
	q2.Feedback(Feedback{Spec: spec, Failed: true, Signature: "fresh", Demo: mutableDemo(6)})
	if len(q2.ancestors) != 1 {
		t.Fatalf("chain cap ignored: %d ancestors", len(q2.ancestors))
	}
}

func TestMutationQueueAdoptsPassingRecordings(t *testing.T) {
	q := &MutationQueue{Seed: 11, AdoptPassing: true}
	q.Feedback(Feedback{Spec: TrialSpec{Index: 4}, Demo: mutableDemo(8)})
	spec, ok := q.Next()
	if !ok {
		t.Fatal("queue did not adopt the passing recording")
	}
	if spec.Mutant.Ancestor != "clean:trial4" {
		t.Fatalf("passing-adoption ancestor = %q", spec.Mutant.Ancestor)
	}
	// Without AdoptPassing the same feedback is ignored.
	q2 := &MutationQueue{Seed: 11}
	q2.Feedback(Feedback{Spec: TrialSpec{Index: 4}, Demo: mutableDemo(8)})
	if _, ok := q2.Next(); ok {
		t.Fatal("queue adopted a passing recording without AdoptPassing")
	}
}

func TestTrialSpecKeyCarriesLineage(t *testing.T) {
	plain := TrialSpec{Strategy: demo.StrategyPCT, Seed1: 1, Seed2: 2, PCTDepth: 3}
	if k := plain.Key(); !strings.Contains(k, "pct") || !strings.Contains(k, "d3") {
		t.Fatalf("plain key %q", k)
	}
	mut := TrialSpec{Strategy: demo.StrategyRandom, Seed1: 1, Seed2: 2,
		Mutant: &Mutant{Ancestor: "race:a", Ops: []string{"swap-queue", "drop-signal"}}}
	k := mut.Key()
	if !strings.Contains(k, "swap-queue,drop-signal") || !strings.Contains(k, "race:a") {
		t.Fatalf("mutant key lacks lineage: %q", k)
	}
	if plain.Key() != plain.Key() || mut.Key() != mut.Key() {
		t.Fatal("Key not stable")
	}
}

// outcomeKey flattens an outcome for cross-run comparison — TrialSpec
// carries a *Mutant, so struct equality would compare pointers.
func outcomeKey(o Outcome) string {
	return fmt.Sprintf("%s|ran=%v|failed=%v|ticks=%d|races=%d|sig=%s|div=%v",
		o.Spec.Key(), o.Ran, o.Failed, o.Ticks, o.Races, o.Signature, o.Diverged)
}

// mutCfg is detCfg plus a mutation queue interleaved 1:1 with the
// rotation, adopting passing recordings so mutants appear quickly.
func mutCfg(t *testing.T, workers int) Config {
	cfg := detCfg(t, workers)
	mq := &MutationQueue{Seed: 42, AdoptPassing: true}
	src, err := NewWeightedSource([]TrialSource{detRotation(), mq}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Source = src
	cfg.Trials = 24
	return cfg
}

// TestMutationSweepDeterministicAcrossWorkers is the engine's core
// guarantee under the feedback-driven source: identical per-trial
// outcomes — including which trials are mutants and what they diverge
// into — for 1 worker and 4 racing workers.
func TestMutationSweepDeterministicAcrossWorkers(t *testing.T) {
	var results []*Result
	for _, workers := range []int{1, 4, 4} {
		res, err := Run(mutCfg(t, workers))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	base := results[0]
	if base.Mutants == 0 {
		t.Fatal("sweep ran no mutated trials; the determinism check is vacuous")
	}
	for _, res := range results[1:] {
		if len(res.Outcomes) != len(base.Outcomes) {
			t.Fatalf("outcome count differs: %d vs %d", len(res.Outcomes), len(base.Outcomes))
		}
		for i := range base.Outcomes {
			a, b := outcomeKey(base.Outcomes[i]), outcomeKey(res.Outcomes[i])
			if a != b {
				t.Errorf("trial %d differs across runs:\n  %s\n  %s", i, a, b)
			}
		}
		if res.Mutants != base.Mutants || res.DivergedTrials != base.DivergedTrials ||
			res.Failing != base.Failing || res.DedupeHits != base.DedupeHits {
			t.Errorf("aggregates differ: mutants %d/%d diverged %d/%d failing %d/%d dedupe %d/%d",
				res.Mutants, base.Mutants, res.DivergedTrials, base.DivergedTrials,
				res.Failing, base.Failing, res.DedupeHits, base.DedupeHits)
		}
	}
}

// TestMutationSweepFailingMutantsAreReplayable: every failure a mutated
// trial contributes carries a strict-replayable re-recording — the demo
// in the corpus is the divergent execution, not the infeasible candidate.
func TestMutationSweepFailingMutantsAreReplayable(t *testing.T) {
	cfg := mutCfg(t, 4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mutantFailures := 0
	for _, f := range res.Failures {
		if f.Ancestor == "" {
			continue
		}
		mutantFailures++
		if len(f.OpChain) == 0 {
			t.Errorf("failure %q has an ancestor but no op chain", f.Signature)
		}
		if f.Demo == nil {
			t.Fatalf("mutant failure %q carries no re-recording", f.Signature)
		}
		if err := f.Demo.Validate(); err != nil {
			t.Fatalf("mutant failure %q re-recording invalid: %v", f.Signature, err)
		}
		if sig := replaySignature(&cfg, f.Spec, f.Demo); sig != f.Signature {
			t.Errorf("mutant failure %q replays to %q", f.Signature, sig)
		}
	}
	t.Logf("%d mutant-contributed distinct failures out of %d", mutantFailures, len(res.Failures))
}
