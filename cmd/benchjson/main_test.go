package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkVisibleOpThreads/threads-2         	16940679	        81.36 ns/op
BenchmarkVisibleOpThreads/threads-128       	17494032	        67.65 ns/op
BenchmarkAtomicRelease/threads=128         	 4865202	        57.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkMutexHandoff/threads=128          	  657889	       317.4 ns/op	    1023 B/op	       1 allocs/op
PASS
ok  	repro	8.532s
`

func TestRunParsesBenchOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleOutput), &out, "2026-08-06", "abc123"); err != nil {
		t.Fatal(err)
	}
	var p Point
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if p.Date != "2026-08-06" || p.Commit != "abc123" {
		t.Errorf("stamp = %q/%q", p.Date, p.Commit)
	}
	if len(p.Results) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(p.Results), p.Results)
	}
	want := Result{Name: "BenchmarkVisibleOpThreads/threads-2", Iters: 16940679, NsPerOp: 81.36}
	if p.Results[0] != want {
		t.Errorf("first result = %+v, want %+v", p.Results[0], want)
	}
	if r := p.Results[0]; r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Errorf("line without -benchmem got memory stats: %+v", r)
	}
	// A measured zero must survive as 0, distinct from absent.
	if r := p.Results[2]; r.Name != "BenchmarkAtomicRelease/threads=128" ||
		r.BytesPerOp == nil || *r.BytesPerOp != 0 ||
		r.AllocsPerOp == nil || *r.AllocsPerOp != 0 {
		t.Errorf("benchmem zero result = %+v, want explicit 0 B/op and 0 allocs/op", r)
	}
	if r := p.Results[3]; r.BytesPerOp == nil || *r.BytesPerOp != 1023 ||
		r.AllocsPerOp == nil || *r.AllocsPerOp != 1 {
		t.Errorf("benchmem result = %+v, want 1023 B/op and 1 allocs/op", r)
	}
	if !strings.Contains(out.String(), `"bytes_per_op": 0`) {
		t.Errorf("JSON omitted the measured-zero bytes_per_op:\n%s", out.String())
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader("PASS\nok\n"), &out, "", ""); err == nil {
		t.Error("no error for input without benchmark lines")
	}
}

// Every column after ns/op is a value-unit pair, so B/op and allocs/op are
// found behind b.SetBytes's MB/s and b.ReportMetric's own columns too.
func TestRunReadsEveryColumn(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	cases := []struct {
		name, line string
		want       Result
	}{
		{"ns/op only", "BenchmarkVisibleOpThreads/threads-2 \t16940679\t        81.36 ns/op",
			Result{Name: "BenchmarkVisibleOpThreads/threads-2", Iters: 16940679, NsPerOp: 81.36}},
		{"benchmem", "BenchmarkNeedleRun-2 \t   10000\t    105000 ns/op\t    6900 B/op\t      72 allocs/op",
			Result{Name: "BenchmarkNeedleRun-2", Iters: 10000, NsPerOp: 105000, BytesPerOp: f(6900), AllocsPerOp: f(72)}},
		{"SetBytes", "BenchmarkDecodeStream-2 \t    5000\t    215000 ns/op\t  72.30 MB/s\t  139616 B/op\t       7 allocs/op",
			Result{Name: "BenchmarkDecodeStream-2", Iters: 5000, NsPerOp: 215000, BytesPerOp: f(139616), AllocsPerOp: f(7)}},
		{"ReportMetric", "BenchmarkVirtualWake \t   10000\t    104000 ns/op\t         3.000 naps/op\t      96 B/op\t       2 allocs/op",
			Result{Name: "BenchmarkVirtualWake", Iters: 10000, NsPerOp: 104000, BytesPerOp: f(96), AllocsPerOp: f(2)}},
		{"SetBytes and ReportMetric without benchmem", "BenchmarkX \t 100\t 12.5 ns/op\t 80.00 MB/s\t 0.5000 hits/op",
			Result{Name: "BenchmarkX", Iters: 100, NsPerOp: 12.5}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if err := run(strings.NewReader(c.line+"\n"), &out, "", ""); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		var p Point
		if err := json.Unmarshal(out.Bytes(), &p); err != nil {
			t.Fatalf("%s: output is not JSON: %v\n%s", c.name, err, out.String())
		}
		want, _ := json.Marshal(Point{Results: []Result{c.want}})
		if got, _ := json.Marshal(p); !bytes.Equal(got, want) {
			t.Errorf("%s: got %s, want %s", c.name, got, want)
		}
	}
	for _, in := range []string{
		"BenchmarkX \t 100\t 12.5 ns/op\t 80.00\n",
		"BenchmarkX \t 100\t 12.5 ns/op\t x B/op\n",
	} {
		if err := run(strings.NewReader(in), new(bytes.Buffer), "", ""); err == nil {
			t.Errorf("%q: no error for a malformed column", in)
		}
	}
}
