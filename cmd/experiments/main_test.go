package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/httpd"
	"repro/internal/obs"
	"repro/internal/stats"
)

func readArtifact(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a := &Artifact{}
	return a, json.Unmarshal(b, a)
}

func entryNamed(name string) (entry, bool) {
	i := slices.IndexFunc(registry, func(e entry) bool { return e.name == name })
	if i < 0 {
		return entry{}, false
	}
	return registry[i], true
}

// latestArtifact is the newest checked-in BENCH_<date>_experiments.json.
func latestArtifact(t *testing.T) *Artifact {
	t.Helper()
	paths, err := filepath.Glob("../../BENCH_*_experiments.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in experiments artifact (%v)", err)
	}
	slices.Sort(paths)
	a, err := readArtifact(paths[len(paths)-1])
	if err != nil {
		t.Fatal(err)
	}
	return a
}

var markerRE = regexp.MustCompile(`^<!-- experiments:(\S+) -->$`)

// docBlocks returns EXPERIMENTS.md's generated blocks by name: the lines
// after each marker, up to the next blank line.
func docBlocks(t *testing.T, doc string) map[string][]string {
	t.Helper()
	blocks := map[string][]string{}
	lines := strings.Split(doc, "\n")
	for i, l := range lines {
		m := markerRE.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		if _, dup := blocks[m[1]]; dup {
			t.Errorf("EXPERIMENTS.md marks block %q twice", m[1])
		}
		var b []string
		for _, l := range lines[i+1:] {
			if strings.TrimSpace(l) == "" {
				break
			}
			b = append(b, l)
		}
		blocks[m[1]] = b
	}
	return blocks
}

// TestExperimentsMDMatchesArtifact renders the checked-in artifact and
// requires every generated block of EXPERIMENTS.md to equal it, so a table
// cannot drift from its data.
func TestExperimentsMDMatchesArtifact(t *testing.T) {
	a := latestArtifact(t)
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	inDoc := docBlocks(t, string(doc))
	for name, want := range docBlocks(t, markdown(a)) {
		got, ok := inDoc[name]
		delete(inDoc, name)
		if !ok {
			t.Errorf("EXPERIMENTS.md has no %q block; the artifact renders:\n%s", name, strings.Join(want, "\n"))
		} else if !slices.Equal(got, want) {
			t.Errorf("EXPERIMENTS.md block %q differs from the artifact; it should read:\n%s", name, strings.Join(want, "\n"))
		}
	}
	for name := range inDoc {
		t.Errorf("EXPERIMENTS.md block %q is not rendered from the artifact", name)
	}
}

// cellRefRE matches a verdict's cell reference, `table/row/mode`.
var cellRefRE = regexp.MustCompile("`([a-z0-9]+)/([^`/ ]+)/([^`/ ]+)`")

// TestVerdictCellsExist requires every cell a verdict names to be in the
// artifact.
func TestVerdictCellsExist(t *testing.T) {
	a := latestArtifact(t)
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	have := map[[3]string]bool{}
	for _, c := range a.Cells {
		have[[3]string{c.Table, c.Row, c.Mode}] = true
	}
	refs := cellRefRE.FindAllStringSubmatch(string(doc), -1)
	if len(refs) == 0 {
		t.Fatal("EXPERIMENTS.md names no cells")
	}
	for _, m := range refs {
		if _, isTable := entryNamed(m[1]); isTable && !have[[3]string{m[1], m[2], m[3]}] {
			t.Errorf("EXPERIMENTS.md names cell %s, which the artifact does not hold", m[0])
		}
	}
}

// TestEntryRoundTrip runs one entry at three runs per cell and renders it
// from its JSON encoding as from memory.
func TestEntryRoundTrip(t *testing.T) {
	e, _ := entryNamed("table1")
	m := &meter{table: e.name, runs: 3, base: 7, sess: obs.NewSession("", false), obs: map[[3]string]*stats.Sample{}}
	if err := e.run(m); err != nil {
		t.Fatal(err)
	}
	a := &Artifact{Date: "2000-01-01", Seed: 7, Cells: m.cells()}
	for _, c := range a.Cells {
		if c.Metric != "first_race" && c.N != 3 {
			t.Errorf("cell %s/%s/%s/%s has n=%d, want 3", c.Table, c.Row, c.Mode, c.Metric, c.N)
		}
	}
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	back := &Artifact{}
	if err := json.Unmarshal(b, back); err != nil {
		t.Fatal(err)
	}
	if want, got := markdown(a), markdown(back); want != got {
		t.Errorf("artifact round trip changed the tables:\n%s\nvs\n%s", want, got)
	}
	if got := len(docBlocks(t, markdown(a))); got != 3 {
		t.Errorf("table1 renders %d blocks with the host line, want 3", got)
	}
}

// TestPartialServerRunFails: a server run that left requests unanswered
// fails its table instead of averaging its throughput into a cell.
func TestPartialServerRunFails(t *testing.T) {
	out := httpd.Outcome{Load: httpd.LoadResult{Requested: 10, Completed: 9}}
	if err := served(out, 10); err == nil {
		t.Error("served accepted a run that completed 9 of 10 requests")
	}
	out.Load.Completed = 10
	if err := served(out, 10); err != nil {
		t.Errorf("served rejected a complete run: %v", err)
	}
}

func TestSelectEntries(t *testing.T) {
	if got, err := selectEntries("all"); err != nil || len(got) != len(registry) {
		t.Errorf("all selected %d entries (%v)", len(got), err)
	}
	if got, err := selectEntries("table2, bug"); err != nil || len(got) != 2 || got[1].name != "bug" {
		t.Errorf("table2,bug selected %v (%v)", got, err)
	}
	if _, err := selectEntries("table9"); err == nil {
		t.Error("an unknown table was accepted")
	}
}
