package demo

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Wire-format pins. The v1 and v2 containers share one record codec, so
// these goldens fix both byte layouts and the decoded values — nil versus
// empty included, which %#v spells out — against refactoring. Regenerate
// with `go test ./internal/demo -run Golden -update` only for a deliberate
// format change.

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// checkGolden compares got with testdata/golden/name, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden file (%d bytes, want %d)", name, len(got), len(want))
	}
}

// goString renders a decoded demo with every nil/empty distinction visible.
func goString(d *Demo) []byte { return []byte(fmt.Sprintf("%#v\n", *d)) }

// TestGoldenV1 pins the v1 encoding of a demo that fills all four streams
// and the output hash, and the value Decode makes of it; the minimal demo
// pins the encoding and decoding of empty streams.
func TestGoldenV1(t *testing.T) {
	for name, d := range map[string]*Demo{
		"sample.v1":  sampleDemo(),
		"minimal.v1": {Strategy: StrategyRandom, Seed1: 1, Seed2: 2},
		"truncated.v1": {Strategy: StrategyPCT, Seed1: 3, Seed2: 4, FinalTick: 2, Truncated: true,
			Asyncs: []AsyncEvent{{Kind: AsyncTimerWakeup, Tick: 1, TID: 2}}},
	} {
		enc := d.Encode()
		checkGolden(t, name, enc)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkGolden(t, name+".decoded", goString(got))
	}
}

// TestGoldenV2 pins the v2 bytes of a streamed recording with several
// flushes, backfill patches and events chunks, the value DecodeStream makes
// of them, and the prefixes Recover cuts from two torn copies.
func TestGoldenV2(t *testing.T) {
	data, _ := streamedFile(t, 300, 32)
	checkGolden(t, "streamed.v2", data)
	d, err := DecodeStream(data)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "streamed.v2.decoded", goString(d))
	for _, cut := range []int{len(data) / 3, len(data) - 3} {
		r, err := RecoverBytes(data[:cut])
		if err != nil {
			t.Fatalf("recover %d bytes: %v", cut, err)
		}
		checkGolden(t, fmt.Sprintf("streamed.v2.recovered-%d", cut), goString(r))
	}
}

// TestCheckedInDemosReencode: every demo checked in elsewhere in the tree
// decodes and re-encodes to its own bytes.
func TestCheckedInDemosReencode(t *testing.T) {
	for _, path := range []string{
		"../core/testdata/pre-fasttrack.demo",
		"../sched/testdata/pre-directed-parking.demo",
		"../../cmd/tsandebug/testdata/msqueue.demo",
		"../../examples/explore/corpus-entry0.demo",
		"../../examples/explore/corpus-entry1.demo",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(d.Encode(), data) {
			t.Errorf("%s does not re-encode to its own bytes", path)
		}
	}
}
