package demo

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/prng"
)

// Fuzz targets: the decoder must never panic or over-allocate on arbitrary
// bytes — demos cross process boundaries (files, CI artefacts), so the
// parser is an attack/corruption surface. Run with
// `go test -fuzz FuzzDecode ./internal/demo` for continuous fuzzing; the
// seed corpus runs as part of the normal test suite.

func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("TSANREC1"))
	f.Add(sampleDemo().Encode())
	d := &Demo{Strategy: StrategyRandom, Seed1: 1, Seed2: 2}
	f.Add(d.Encode())
	corrupt := sampleDemo().Encode()
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)
	// Decodable-but-unreplayable demos: a zero-thread queue demo claiming
	// five ticks happened, and a FinalTick of ^uint64(0) whose +1 used to
	// wrap the replayer's schedule allocation to length zero and panic on
	// the first index. Checked-in copies live in testdata/fuzz/FuzzDecode.
	f.Add((&Demo{Strategy: StrategyQueue, Seed1: 1, Seed2: 2, FinalTick: 5}).Encode())
	f.Add((&Demo{Strategy: StrategyQueue, FinalTick: ^uint64(0)}).Encode())
	// A sparse-high-TID queue demo: many threads scattered across a large
	// id space with a long-run tick stream, the shape the 10k-thread
	// scaling scenario records (see scale_test.go).
	f.Add(sparseQueueDemo(300, 8, 50).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		// Anything that decodes must survive Validate and the replayer
		// constructor without panicking — a diagnostic error is fine, an
		// index/alloc panic is the bug class this corpus pins down.
		_ = d.Validate()
		_, _ = NewReplayer(d, ReplayStrict)
		// Whatever decodes must re-encode and decode to the same bytes
		// (canonical form round trip).
		enc := d.Encode()
		d2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded demo failed: %v", err)
		}
		if !bytes.Equal(enc, d2.Encode()) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}

// TestDecodeHugeCountsFailCheaply: two checked-in FuzzDecode seeds are a v1
// header plus one section whose record count (2^40 signals, 2^26 syscalls)
// no payload backs. Three more are queue sections whose RLE tick stream
// claims more ticks than its canonical encoding may stand for (rle's
// decodeLimit): ~89M ticks in valid runs before a corrupt one (found by
// fuzzing), the same runs made valid (44M ticks), and one run of 1.5M
// ticks followed by 20 bytes after the end marker, which must not raise
// the limit: the demo's canonical re-encoding has no such bytes.
// No count may size an allocation before the input behind it is checked:
// all five inputs are ErrCorrupt, for under 1 MB allocated.
func TestDecodeHugeCountsFailCheaply(t *testing.T) {
	for _, name := range []string{"v1-signal-count-2e40", "v1-syscall-count-2e26", "v1-queue-rle-huge-run-then-zero",
		"v1-queue-rle-44M-ticks-in-valid-runs", "v1-queue-run-1500000-then-trailing-bytes"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecode", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		quoted, ok := strings.CutPrefix(lines[1], "[]byte(")
		if !ok {
			t.Fatalf("%s: not a []byte corpus entry", name)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = Decode([]byte(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes, want under 1 MB", name, n)
		}
	}
}

// FuzzRecoverStream: the v2 scan/recover path must never panic or
// over-allocate on arbitrary bytes — torn files are its normal input, so
// every prefix and corruption of a real stream is in scope.
func FuzzRecoverStream(f *testing.F) {
	dir, err := os.MkdirTemp("", "fuzzstream")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.demo2")
	r, err := NewStreamingRecorder(path, StrategyQueue, 3, 4, StreamOptions{FlushInterval: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	for tick := 1; tick <= 40; tick++ {
		r.NoteSchedule(int32(tick%2), uint64(tick))
		if tick%5 == 0 {
			r.AddSignal(SignalEvent{TID: int32(tick % 2), Tick: uint64(tick), Sig: 2})
			r.MixOutput([]byte{byte(tick)})
		}
		if tick%10 == 0 {
			if err := r.Flush(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := r.Close(40); err != nil {
		f.Fatal(err)
	}
	stream, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{})
	f.Add([]byte(magic2))
	f.Add(stream)                   // complete
	f.Add(stream[:len(stream)-3])   // torn tail: mid final footer
	f.Add(stream[:len(stream)*2/3]) // mid-chunk truncation
	f.Add(stream[:v2HeaderLen+1])   // header plus a stray byte
	dup := append(append([]byte(nil), stream...), stream[v2HeaderLen:]...)
	f.Add(dup) // duplicated chunk sequence after the final footer
	corrupt := append([]byte(nil), stream...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := RecoverBytes(data)
		if err == nil {
			// Whatever recovers must be internally consistent enough for
			// the replayer (recovery itself ran Validate) and must survive
			// the v1 round trip, truncation flag included.
			if verr := d.Validate(); verr != nil {
				t.Fatalf("recovered demo fails validation: %v", verr)
			}
			if _, rerr := NewReplayer(d, ReplayStrict); rerr != nil {
				t.Fatalf("replayer rejected recovered demo: %v", rerr)
			}
			d2, derr := Decode(d.Encode())
			if derr != nil {
				t.Fatalf("v1 round trip of recovered demo: %v", derr)
			}
			if d2.Truncated != d.Truncated {
				t.Fatal("Truncated flag lost in round trip")
			}
		}
		// Strict decoding must agree with recovery about complete files
		// and never panic on the rest.
		_, _ = DecodeStream(data)
	})
}

// FuzzMutate: mutation operators sit downstream of the decoder, so any
// demo that decodes *and validates* is fair input. The operator contract
// is all-or-nothing — a Validate-clean mutant or an ErrNotApplicable
// rejection — so anything else (a panic, a silently invalid mutant, a
// non-rejection error) is a bug this target pins down.
func FuzzMutate(f *testing.F) {
	f.Add(sampleDemo().Encode(), uint64(1))
	f.Add((&Demo{Strategy: StrategyRandom, Seed1: 1, Seed2: 2, FinalTick: 6}).Encode(), uint64(7))
	f.Add((&Demo{Strategy: StrategyPCT, Seed1: 3, Seed2: 4, FinalTick: 2,
		Asyncs: []AsyncEvent{{Kind: AsyncReschedule, Tick: 1}}}).Encode(), uint64(0))
	f.Add((&Demo{Strategy: StrategyDelay, Seed1: 5, Seed2: 6, FinalTick: 9,
		Signals: []SignalEvent{{TID: 1, Tick: 4, Sig: 2}}}).Encode(), uint64(42))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		d, err := Decode(data)
		if err != nil || d.Validate() != nil {
			return
		}
		rng := prng.New(seed, seed^0xab5e)
		m, op, merr := MutateOnce(d, rng, nil)
		if merr != nil {
			if !errors.Is(merr, ErrNotApplicable) {
				t.Fatalf("MutateOnce on a valid demo returned a non-rejection error: %v", merr)
			}
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("operator %s emitted an invalid mutant: %v", op, verr)
		}
		// A valid mutant must survive the wire format and the replayer
		// constructor like any recorded demo.
		if _, derr := Decode(m.Encode()); derr != nil {
			t.Fatalf("mutant does not round-trip: %v", derr)
		}
		if _, rerr := NewReplayer(m, ReplayTolerantRecord); rerr != nil {
			t.Fatalf("tolerant replayer rejected a valid mutant: %v", rerr)
		}
	})
}

func FuzzRoundTripThroughReplayer(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 0, 2, 1})
	f.Fuzz(func(t *testing.T, seed uint64, schedule []byte) {
		if len(schedule) > 4096 {
			return
		}
		r := NewRecorder(StrategyQueue, seed, seed+1)
		for i, b := range schedule {
			r.NoteSchedule(int32(b%4), uint64(i+1))
		}
		d := r.Finish(uint64(len(schedule)))
		enc := d.Encode()
		d2, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of recorded demo: %v", err)
		}
		rep, err := NewReplayer(d2, ReplayStrict)
		if err != nil {
			t.Fatalf("replayer rejected round-tripped demo: %v", err)
		}
		for i, b := range schedule {
			if rep.ScheduledAt(uint64(i+1)) != int32(b%4) {
				t.Fatal("schedule did not survive serialisation")
			}
		}
	})
}
