package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/demo"
	"repro/internal/obs"
)

// The needle program (internal/apps/litmus, Extras) stages two races: a
// shallow one (needle.trip) that seed rotation finds within a few dozen
// trials, and a deep one (needle.deep) whose fresh-schedule probability is
// roughly the product of two window alignments — but whose conditional
// probability given a recorded shallow-race demo is high, because the
// drop-signal mutation deletes the probe's padded handler execution from
// the replay and shifts the second sample wholesale into the deep window.
// These tests pin that conditional-vs-joint gap as the mutation source's
// acceptance criterion.
//
// Everything here is seed-deterministic: random-strategy trials with the
// reschedule watchdog disabled, sources driven by pinned seeds, and the
// engine's in-order feedback making the sweep a pure function of config
// (TestMutationSweepDeterministicAcrossWorkers). The constants below were
// picked by scanning master seeds; the measured indices are asserted
// loosely (ordering, not exact values) so unrelated engine changes that
// legitimately reshuffle trial order fail loudly only if they destroy the
// gap itself.

// needleMaster is the pinned master seed: rotation-only first finds the
// deep race at trial 445, rotation+mutation at trial 23 (19x fewer).
const (
	needleMaster   = 4
	needleMQSeed   = 7
	needleBudget   = 500
	needleDeepMark = "needle.deep"
)

func firstDeepTrial(res *Result) int {
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Failed && strings.Contains(o.Signature, needleDeepMark) {
			return i
		}
	}
	return -1
}

func needleRotation() *SeedRotation {
	return &SeedRotation{MasterSeed: needleMaster}
}

// TestMutationFindsSeededRaceFaster is the mutation source's reason to
// exist: on the same trial budget and the same fresh-seed stream, the
// rotation+mutation hunt reaches the needle's deep race in a fraction of
// the trials the pure rotation needs.
func TestMutationFindsSeededRaceFaster(t *testing.T) {
	needle := testProgram(t, "needle")

	rot, err := Run(Config{Program: needle, Trials: needleBudget, Workers: 4,
		RescheduleQuantum: -1, Source: needleRotation()})
	if err != nil {
		t.Fatal(err)
	}
	mq := &MutationQueue{Seed: needleMQSeed}
	src, err := NewWeightedSource([]TrialSource{needleRotation(), mq}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	mut, err := Run(Config{Program: needle, Trials: needleBudget, Workers: 4,
		RescheduleQuantum: -1, Source: src})
	if err != nil {
		t.Fatal(err)
	}

	rotIdx, mutIdx := firstDeepTrial(rot), firstDeepTrial(mut)
	t.Logf("first deep race: rotation-only trial %d, rotation+mutation trial %d (mutants=%d)",
		rotIdx, mutIdx, mut.Mutants)
	if mutIdx < 0 {
		t.Fatal("rotation+mutation never found the deep race")
	}
	if mut.Mutants == 0 {
		t.Fatal("no mutated trials ran; the mutation queue never adopted an ancestor")
	}
	if rotIdx < 0 {
		rotIdx = needleBudget // censored: not found within the budget
	}
	if mutIdx >= rotIdx {
		t.Fatalf("mutation (trial %d) did not beat rotation (trial %d)", mutIdx, rotIdx)
	}
}

// TestMutationDeepFailureLineageReplays: the deep failure the mutation
// hunt surfaces must carry its lineage (ancestor signature + operator
// chain) and a re-recorded demo that strict-replays to the same
// signature — the corpus contract the racehunt -mutate workflow and the
// CI mutation-smoke target stand on.
func TestMutationDeepFailureLineageReplays(t *testing.T) {
	needle := testProgram(t, "needle")
	mq := &MutationQueue{Seed: needleMQSeed}
	src, err := NewWeightedSource([]TrialSource{needleRotation(), mq}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Program: needle, Trials: needleBudget, Workers: 4,
		RescheduleQuantum: -1, Source: src}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var deep *Failure
	for _, f := range res.Failures {
		if strings.Contains(f.Signature, needleDeepMark) {
			deep = f
			break
		}
	}
	if deep == nil {
		t.Fatal("no deep failure in the corpus")
	}
	if deep.Ancestor == "" || !strings.Contains(deep.Ancestor, "needle.trip") {
		t.Errorf("deep failure ancestor = %q, want the shallow-race signature", deep.Ancestor)
	}
	hasDrop := false
	for _, op := range deep.OpChain {
		if op == "drop-signal" {
			hasDrop = true
		}
	}
	if !hasDrop {
		t.Errorf("deep failure op chain %v lacks drop-signal", deep.OpChain)
	}
	if deep.Demo == nil {
		t.Fatal("deep failure has no re-recorded demo")
	}
	if err := deep.Demo.Validate(); err != nil {
		t.Fatalf("deep failure demo not Validate-clean: %v", err)
	}
	if sig := replaySignature(&cfg, deep.Spec, deep.Demo); sig != deep.Signature {
		t.Errorf("deep failure demo strict-replays to %q, want %q", sig, deep.Signature)
	}

	// The corpus serialisation keeps the lineage.
	corpus := res.Corpus()
	found := false
	for _, e := range corpus.Entries {
		if strings.Contains(e.Signature, needleDeepMark) {
			found = true
			if e.Ancestor == "" || len(e.OpChain) == 0 {
				t.Errorf("corpus entry for deep failure lost lineage: ancestor=%q ops=%v",
					e.Ancestor, e.OpChain)
			}
		}
	}
	if !found {
		t.Error("deep failure missing from the corpus")
	}
}

// TestNeedleShallowFindable guards the needle's geometry: the shallow
// race must stay findable by plain rotation within the first slice of the
// budget, or the mutation pipeline upstream of the deep race starves.
func TestNeedleShallowFindable(t *testing.T) {
	needle := testProgram(t, "needle")
	res, err := Run(Config{Program: needle, Trials: 120, Workers: 4,
		RescheduleQuantum: -1, Source: needleRotation()})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures {
		if strings.Contains(f.Signature, "needle.trip") {
			if f.Spec.Strategy != demo.StrategyRandom {
				t.Errorf("shallow failure from strategy %v, want random", f.Spec.Strategy)
			}
			return
		}
	}
	t.Fatal("shallow race not found in 120 rotation trials")
}

// TestRecordDirMatchesInMemorySweep: streaming fresh trials into a record
// directory changes nothing about the sweep, and the directory ends up
// holding exactly the failing fresh trials' recordings, each of which
// strict-replays to its trial's signature.
func TestRecordDirMatchesInMemorySweep(t *testing.T) {
	sweep := func(recordDir string) *Result {
		t.Helper()
		src, err := NewWeightedSource([]TrialSource{needleRotation(), &MutationQueue{Seed: needleMQSeed}}, []int{1, 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Program: testProgram(t, "needle"), Trials: 200, Workers: 2,
			RescheduleQuantum: -1, Source: src, RecordDir: recordDir})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dir := t.TempDir()
	mem, rec := sweep(""), sweep(dir)

	if len(rec.Outcomes) != len(mem.Outcomes) {
		t.Fatalf("%d outcomes streamed, %d in memory", len(rec.Outcomes), len(mem.Outcomes))
	}
	var want []string
	for i := range mem.Outcomes {
		a, b := mem.Outcomes[i], rec.Outcomes[i]
		a.Duration, b.Duration = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d differs:\n  in memory %+v\n  streamed  %+v", i, a, b)
		}
		if b.Failed && b.Spec.Mutant == nil {
			want = append(want, fmt.Sprintf("trial%06d.demo2", i))
		}
	}
	if len(rec.Failures) != len(mem.Failures) {
		t.Fatalf("%d failures streamed, %d in memory", len(rec.Failures), len(mem.Failures))
	}
	for i, f := range rec.Failures {
		g := *f
		if f.Spec.Mutant == nil {
			if want := filepath.Join(dir, fmt.Sprintf("trial%06d.demo2", f.Spec.Index)); f.DemoPath != want {
				t.Errorf("failure %d: DemoPath %q, want %q", i, f.DemoPath, want)
			}
		} else if f.DemoPath != "" {
			t.Errorf("failure %d: mutated trial reports DemoPath %q", i, f.DemoPath)
		}
		g.DemoPath = ""
		if !reflect.DeepEqual(&g, mem.Failures[i]) {
			t.Errorf("failure %d differs from the in-memory sweep's: %q vs %q", i, f.Signature, mem.Failures[i].Signature)
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	sort.Strings(got)
	t.Logf("%d failing fresh trials, %d distinct failures, %d mutants", len(want), len(rec.Failures), rec.Mutants)
	if len(want) < 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("record dir holds %v, want one file per failing fresh trial %v", got, want)
	}
	cfg := Config{Program: testProgram(t, "needle"), RescheduleQuantum: -1}
	for _, name := range got {
		var idx int
		if _, err := fmt.Sscanf(name, "trial%06d.demo2", &idx); err != nil {
			t.Fatal(err)
		}
		d, err := demo.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sig := replaySignature(&cfg, rec.Outcomes[idx].Spec, d); sig != rec.Outcomes[idx].Signature {
			t.Errorf("%s strict-replays to %q, want %q", name, sig, rec.Outcomes[idx].Signature)
		}
	}
}

// TestRecordDirStreamCounters: the stream writer's counters account for
// every streamed trial. Kept recordings are exactly the files left in the
// record directory, kept plus discarded are the fresh trials (mutated
// trials record in memory), and every kept recording spilled to disk.
func TestRecordDirStreamCounters(t *testing.T) {
	src, err := NewWeightedSource([]TrialSource{needleRotation(), &MutationQueue{Seed: needleMQSeed}}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mx := obs.NewMetrics()
	res, err := Run(Config{Program: testProgram(t, "needle"), Trials: 200, Workers: 2,
		RescheduleQuantum: -1, Source: src, RecordDir: dir, Metrics: mx})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept := mx.CounterValue("demo.streams.kept")
	discarded := mx.CounterValue("demo.streams.discarded")
	spilled := mx.CounterValue("demo.streams.spilled")
	t.Logf("%d trials, %d mutants: %d kept, %d discarded, %d spilled", res.Trials, res.Mutants, kept, discarded, spilled)
	if kept == 0 || kept != uint64(len(entries)) {
		t.Errorf("demo.streams.kept = %d, record dir holds %d files", kept, len(entries))
	}
	if kept+discarded != uint64(res.Trials-res.Mutants) {
		t.Errorf("kept %d + discarded %d != %d fresh trials", kept, discarded, res.Trials-res.Mutants)
	}
	if kept > spilled {
		t.Errorf("demo.streams.kept = %d > demo.streams.spilled = %d", kept, spilled)
	}
}
