package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runTiny runs the benchmark in-process at the self-test size and returns
// its output and the decoded last line.
func runTiny(t *testing.T, args ...string) (string, runResult) {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append([]string{"--tiny", "--seconds", "0", "--out", t.TempDir()}, args...)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var r runResult
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, last)
	}
	checkKeysOnce(t, last)
	return out.String(), r
}

// checkKeysOnce fails if the result line repeats a key, which decoding into
// a map would silently hide.
func checkKeysOnce(t *testing.T, line string) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(line))
	var walk func(depth int)
	walk = func(depth int) {
		seen := map[string]bool{}
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			key := tok.(string)
			if seen[key] {
				t.Errorf("key %q emitted twice", key)
			}
			seen[key] = true
			tok, err = dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			if d, ok := tok.(json.Delim); ok && d == '{' {
				walk(depth + 1)
			}
		}
		if _, err := dec.Token(); err != nil { // closing brace
			t.Fatal(err)
		}
	}
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	walk(0)
}

// TestEveryMetricEmittedOnceWithUnit runs each workload at the tiny size,
// untraced and traced, and checks the result line carries exactly the
// catalog's metrics with their units, and that every check passed.
func TestEveryMetricEmittedOnceWithUnit(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				out, r := runTiny(t, "--workload", w.name, "--trace", trace)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d\n%s", r.Correct, r.Failed, r.Attempted, out)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, catalog has %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
				}
			})
		}
	}
}

// TestInjectedFailureIsCounted hands every replay a damaged recording: the
// run must finish, print its result, and count the failures instead of
// aborting or losing them.
func TestInjectedFailureIsCounted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, r := runTiny(t, "--workload", w.name, "--inject", "corrupt-demo")
			if r.Correct || r.Failed == 0 || r.Failed > r.Attempted {
				t.Errorf("correct=%v failed=%d attempted=%d\n%s", r.Correct, r.Failed, r.Attempted, out)
			}
			if !strings.Contains(out, "FAILED: unit") {
				t.Errorf("no failed unit reported\n%s", out)
			}
			if len(r.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics emitted, want %d", len(r.Metrics), len(endToEnd))
			}
		})
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the catalog the
// benchmark emits from in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalog", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalog %s %s %s", kind, i, g, w.Name, w.Unit, w.Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
