package demo

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// feedRecorder drives one synthetic queue-strategy execution into r:
// three threads round-robin for n ticks, with a signal, an async and a
// syscall sprinkled in, plus output. Returns the final tick.
func feedRecorder(r *Recorder, n int) uint64 {
	for tick := 1; tick <= n; tick++ {
		tid := int32((tick - 1) % 3)
		r.NoteSchedule(tid, uint64(tick))
		switch tick % 7 {
		case 2:
			r.AddSignal(SignalEvent{TID: tid, Tick: uint64(tick), Sig: 15})
		case 3:
			r.AddAsync(AsyncEvent{Kind: AsyncReschedule, Tick: uint64(tick), TID: tid})
		case 5:
			r.AddSyscall(SyscallRecord{TID: tid, Kind: 3, Ret: int64(tick), Bufs: [][]byte{{byte(tick)}}})
		}
		if tick%4 == 0 {
			r.MixOutput([]byte{byte(tick)})
		}
	}
	return uint64(n)
}

// newStreamRecorder returns a streaming recorder writing into a temp file,
// with the background flusher effectively disabled so tests control flush
// boundaries exactly via Flush().
func newStreamRecorder(t *testing.T) (*Recorder, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.demo2")
	r, err := NewStreamingRecorder(path, StrategyQueue, 11, 22, StreamOptions{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return r, path
}

// syncCounter counts the syncs of the stream file it wraps.
type syncCounter struct {
	StreamFile
	n *atomic.Int32
}

func (s syncCounter) Sync() error {
	s.n.Add(1)
	return s.StreamFile.Sync()
}

// TestDiscardSkipsTheSeal: Close seals the file with one sync; Discard
// returns the demo the sealed file holds without a sync and leaves no
// file, and a recording that never spilled never creates one.
// StreamOptions.Fsync adds one sync per non-final flush batch, never one
// at Close or Discard.
func TestDiscardSkipsTheSeal(t *testing.T) {
	var syncs, files atomic.Int32
	WrapStreamFile = func(f StreamFile) StreamFile {
		files.Add(1)
		return syncCounter{f, &syncs}
	}
	t.Cleanup(func() { WrapStreamFile = nil })
	var sealed *Demo
	for _, tc := range []struct {
		name                 string
		discard, flush       bool
		fsync                bool
		wantSyncs, wantFiles int32
	}{
		{"close", false, true, false, 1, 1},
		{"close/fsync", false, true, true, 2, 1},
		{"close/unspilled", false, false, false, 1, 1},
		{"discard", true, true, false, 0, 1},
		{"discard/fsync", true, true, true, 1, 1},
		{"discard/unspilled", true, false, false, 0, 0},
	} {
		syncs.Store(0)
		files.Store(0)
		path := filepath.Join(t.TempDir(), "stream.demo2")
		r, err := NewStreamingRecorder(path, StrategyQueue, 11, 22, StreamOptions{FlushInterval: time.Hour, Fsync: tc.fsync})
		if err != nil {
			t.Fatal(err)
		}
		final := feedRecorder(r, 100)
		if tc.flush {
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if r.Spilled() != tc.flush {
			t.Fatalf("%s: Spilled() = %v before the end", tc.name, r.Spilled())
		}
		var got *Demo
		if tc.discard {
			if got, err = r.Discard(final); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s: Discard left the file: %v", tc.name, err)
			}
		} else {
			if err := r.Close(final); err != nil {
				t.Fatal(err)
			}
			if got, err = ReadFile(path); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if n := syncs.Load(); n != tc.wantSyncs {
			t.Errorf("%s: %d syncs, want %d", tc.name, n, tc.wantSyncs)
		}
		if n := files.Load(); n != tc.wantFiles {
			t.Errorf("%s: %d files created, want %d", tc.name, n, tc.wantFiles)
		}
		if sealed == nil {
			sealed = got
		} else if !reflect.DeepEqual(got, sealed) {
			t.Errorf("%s: demo differs from the sealed file's", tc.name)
		}
	}
}

// TestStreamingRecorderChecksPath: a missing directory or a directory at
// the path is rejected up front and left as it was; a stale file at the
// path is removed before the recording starts.
func TestStreamingRecorderChecksPath(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewStreamingRecorder(filepath.Join(dir, "missing", "x.demo2"), StrategyQueue, 1, 2, StreamOptions{}); err == nil {
		t.Error("path in a missing directory accepted")
	}
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamingRecorder(sub, StrategyQueue, 1, 2, StreamOptions{}); err == nil {
		t.Error("directory path accepted")
	}
	if fi, err := os.Stat(sub); err != nil || !fi.IsDir() {
		t.Fatalf("directory at the path did not survive: %v", err)
	}
	stale := filepath.Join(dir, "stale.demo2")
	if err := os.WriteFile(stale, []byte(magic2), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := NewStreamingRecorder(stale, StrategyQueue, 1, 2, StreamOptions{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close(0)
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale file survived the recorder's start: %v", err)
	}
}

// TestStreamingAddIndicesStayGlobal: the indices Add* return keep counting
// across flushes (trace events carry them as global stream offsets).
func TestStreamingAddIndicesStayGlobal(t *testing.T) {
	r, _ := newStreamRecorder(t)
	for i := 0; i < 5; i++ {
		r.NoteSchedule(0, uint64(i+1))
		if got := r.AddSignal(SignalEvent{TID: 0, Tick: uint64(i + 1), Sig: 1}); got != i {
			t.Fatalf("AddSignal #%d returned %d", i, got)
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.AddSyscall(SyscallRecord{TID: 0, Kind: 1}); got != 0 {
		t.Fatalf("first AddSyscall returned %d", got)
	}
	r.Flush()
	if got := r.AddSyscall(SyscallRecord{TID: 0, Kind: 2}); got != 1 {
		t.Fatalf("AddSyscall after flush returned %d, want 1", got)
	}
	r.Close(5)
}

// streamedFile records a run with flushes at the given tick boundaries and
// returns the file bytes and the full in-memory equivalent demo.
func streamedFile(t *testing.T, n, flushEvery int) ([]byte, *Demo) {
	t.Helper()
	mem := NewRecorder(StrategyQueue, 11, 22)
	feedRecorder(mem, n)
	want := mem.Finish(uint64(n))

	sr, path := newStreamRecorder(t)
	for tick := 1; tick <= n; tick++ {
		tid := int32((tick - 1) % 3)
		sr.NoteSchedule(tid, uint64(tick))
		switch tick % 7 {
		case 2:
			sr.AddSignal(SignalEvent{TID: tid, Tick: uint64(tick), Sig: 15})
		case 3:
			sr.AddAsync(AsyncEvent{Kind: AsyncReschedule, Tick: uint64(tick), TID: tid})
		case 5:
			sr.AddSyscall(SyscallRecord{TID: tid, Kind: 3, Ret: int64(tick), Bufs: [][]byte{{byte(tick)}}})
		}
		if tick%4 == 0 {
			sr.MixOutput([]byte{byte(tick)})
		}
		if tick%flushEvery == 0 {
			if err := sr.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sr.Close(uint64(n)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, want
}

// TestRecoverTornTails: cutting the file anywhere after the first footer
// recovers a valid, replayable prefix whose schedule and event streams
// agree with the full recording.
func TestRecoverTornTails(t *testing.T) {
	data, full := streamedFile(t, 300, 32)
	fullSchedule, err := full.queueSchedule()
	if err != nil {
		t.Fatal(err)
	}

	// The whole file must strict-decode and recover identically.
	if _, err := DecodeStream(data); err != nil {
		t.Fatalf("DecodeStream(full): %v", err)
	}
	whole, err := RecoverBytes(data)
	if err != nil {
		t.Fatalf("RecoverBytes(full): %v", err)
	}
	if whole.Truncated {
		t.Fatal("complete file recovered as truncated")
	}
	if !reflect.DeepEqual(whole, full) {
		t.Fatal("recovery of the complete file differs from the recording")
	}

	recovered := 0
	for cut := v2HeaderLen + 1; cut < len(data); cut += 37 {
		d, err := RecoverBytes(data[:cut])
		if err != nil {
			continue // cut before the first intact footer: nothing to recover
		}
		recovered++
		if err := d.Validate(); err != nil {
			t.Fatalf("cut %d: recovered demo invalid: %v", cut, err)
		}
		if !d.Truncated {
			t.Fatalf("cut %d: truncated file not marked truncated", cut)
		}
		if d.FinalTick > full.FinalTick {
			t.Fatalf("cut %d: prefix final tick %d exceeds full %d", cut, d.FinalTick, full.FinalTick)
		}
		sched, err := d.queueSchedule()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for i := uint64(1); i <= d.FinalTick; i++ {
			if sched[i] != fullSchedule[i] {
				t.Fatalf("cut %d: schedule diverges at tick %d: %d != %d", cut, i, sched[i], fullSchedule[i])
			}
		}
		// Event streams must be prefixes of the full ones.
		if !reflect.DeepEqual(d.Signals, full.Signals[:len(d.Signals)]) {
			t.Fatalf("cut %d: signal stream is not a prefix", cut)
		}
		if !reflect.DeepEqual(d.Asyncs, full.Asyncs[:len(d.Asyncs)]) {
			t.Fatalf("cut %d: async stream is not a prefix", cut)
		}
		if !reflect.DeepEqual(d.Syscalls, full.Syscalls[:len(d.Syscalls)]) {
			t.Fatalf("cut %d: syscall stream is not a prefix", cut)
		}
		// A truncated demo must survive the v1 round trip with its flag.
		rt, err := Decode(d.Encode())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !rt.Truncated {
			t.Fatalf("cut %d: Truncated lost in v1 round trip", cut)
		}
	}
	if recovered == 0 {
		t.Fatal("no cut recovered anything; flush cadence broken?")
	}

	// Strict decoding must reject every torn tail.
	if _, err := DecodeStream(data[:len(data)-3]); err == nil {
		t.Fatal("DecodeStream accepted a torn file")
	}
}

// TestRecoverEdgeCases: garbage, header-only, duplicated footer, corrupted
// mid-chunk byte.
func TestRecoverEdgeCases(t *testing.T) {
	if _, err := RecoverBytes([]byte("not a demo stream at all")); err == nil {
		t.Fatal("recovered garbage")
	}
	if _, err := RecoverBytes(nil); err == nil {
		t.Fatal("recovered empty input")
	}

	data, full := streamedFile(t, 50, 10)

	// Header only: valid container, no footer, nothing to recover.
	if _, err := RecoverBytes(data[:v2HeaderLen]); err == nil {
		t.Fatal("recovered a header-only file")
	}

	// Duplicated final footer chunk: still recoverable (the scan just sees
	// one more candidate), and strict decoding still accepts it since the
	// file ends at an intact final footer.
	var lastFooterStart int
	for off := v2HeaderLen; off < len(data); {
		typ, _, next, ok := parseChunk(data, off)
		if !ok {
			t.Fatal("unexpected torn chunk in complete file")
		}
		if typ == chunkFooter {
			lastFooterStart = off
		}
		off = next
	}
	dup := append(append([]byte(nil), data...), data[lastFooterStart:]...)
	d, err := RecoverBytes(dup)
	if err != nil {
		t.Fatalf("duplicated footer: %v", err)
	}
	if d.FinalTick != full.FinalTick || d.Truncated {
		t.Fatalf("duplicated footer changed the recovery: tick %d truncated %v", d.FinalTick, d.Truncated)
	}

	// Corrupting a byte inside the first chunk's payload kills its CRC;
	// everything from there is torn, so nothing recovers (the first chunk
	// batch precedes the first footer).
	bad := append([]byte(nil), data...)
	bad[v2HeaderLen+5] ^= 0xFF
	if _, err := RecoverBytes(bad); err == nil {
		t.Fatal("recovered through a corrupt chunk")
	}
}

// TestGrowCapOverflow pins the doubling-overflow fix: the loop used to
// wrap c*2 past zero and spin forever once need exceeded 1<<63.
func TestGrowCapOverflow(t *testing.T) {
	if got := growCap(0, 5); uint64(got) < 1024 {
		t.Fatalf("growCap(0,5) = %d", got)
	}
	if got := growCap(1024, 1<<20); uint64(got) < 1<<20 {
		t.Fatalf("growCap(1024,1<<20) = %d", got)
	}
	// Must terminate and clamp rather than loop forever. (The clamped
	// value converted to int is unusable at this magnitude, but such a
	// need is unreachable: it would require a tick count past 2^63.)
	done := make(chan int, 1)
	go func() { done <- growCap(1024, ^uint64(0)) }()
	select {
	case got := <-done:
		if uint64(got) != ^uint64(0) {
			t.Fatalf("overflow clamp returned %d", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("growCap spun on overflow")
	}
}

// TestMixHashZeroStateNotReseeded pins the h==0 sentinel fix: a mid-stream
// FNV state of 0 must keep evolving as FNV from 0, not be re-seeded with
// the offset basis.
func TestMixHashZeroStateNotReseeded(t *testing.T) {
	r := NewRecorder(StrategyQueue, 1, 2)
	r.outputHash = 0
	r.hashInited = true
	r.MixOutput([]byte{7})
	if want := mixHash(0, []byte{7}); r.outputHash != want {
		t.Fatalf("recorder re-seeded a legitimate zero state: %#x != %#x", r.outputHash, want)
	}

	rep, err := NewReplayer(&Demo{Strategy: StrategyRandom}, ReplayStrict)
	if err != nil {
		t.Fatal(err)
	}
	rep.outputHash = 0
	rep.hashInited = true
	rep.MixOutput([]byte{7})
	if want := mixHash(0, []byte{7}); rep.outputHash != want {
		t.Fatalf("replayer re-seeded a legitimate zero state: %#x != %#x", rep.outputHash, want)
	}

	// An empty output stream still hashes to 0 (on-disk compatibility with
	// demos recorded before the fix).
	r2 := NewRecorder(StrategyQueue, 1, 2)
	if d := r2.Finish(0); d.OutputHash != 0 {
		t.Fatalf("empty output hashed to %#x, want 0", d.OutputHash)
	}
}

// TestFinishPanicsOnStreamingRecorder: the in-memory freeze is meaningless
// once part of the recording lives on disk.
func TestFinishPanicsOnStreamingRecorder(t *testing.T) {
	r, _ := newStreamRecorder(t)
	defer r.Close(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Finish on a streaming recorder did not panic")
		}
	}()
	r.Finish(0)
}

// TestFinishIsRepeatable: Finish neither cuts nor ends an in-memory
// recording, so a second call returns the demo the first did, and the
// recording still ends with the same demo through Discard.
func TestFinishIsRepeatable(t *testing.T) {
	r := NewRecorder(StrategyQueue, 11, 22)
	final := feedRecorder(r, 300)
	first := r.Finish(final)
	if second := r.Finish(final); !reflect.DeepEqual(first, second) {
		t.Fatalf("second Finish differs:\n got %+v\nwant %+v", second, first)
	}
	if len(first.Queue.Ticks) != int(final) || len(first.Syscalls) == 0 {
		t.Fatalf("Finish lost part of the recording: %d ticks, %d syscalls", len(first.Queue.Ticks), len(first.Syscalls))
	}
	d, err := r.Discard(final)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, first) {
		t.Fatal("Discard's demo differs from Finish's")
	}
}

// TestStreamingSteadyStateAllocatesNothing: once its windows and buffers
// have grown, a streaming recorder records a flush interval's worth of
// ticks and events and flushes them without allocating, since every
// allocation on the record path is paid inside a critical section.
func TestStreamingSteadyStateAllocatesNothing(t *testing.T) {
	r, _ := newStreamRecorder(t)
	defer r.Close(0)
	rec := SyscallRecord{TID: 1, Kind: 3, Ret: 8, Bufs: [][]byte{[]byte("response")}}
	tick := uint64(0)
	interval := func() {
		for i := 0; i < 4096; i++ {
			tick++
			tid := int32(tick % 4)
			r.NoteSchedule(tid, tick)
			switch tick % 64 {
			case 1:
				r.AddSignal(SignalEvent{TID: tid, Tick: tick, Sig: 10})
			case 2:
				r.AddAsync(AsyncEvent{Kind: AsyncReschedule, Tick: tick, TID: tid})
			case 3:
				r.AddSyscall(rec)
			}
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		interval()
	}
	if n := testing.AllocsPerRun(50, interval); n != 0 {
		t.Fatalf("a recorded and flushed interval allocates %v times, want 0", n)
	}
}

// TestTimedFlushesInterleaveWindowCuts: a timed flush every 20µs takes
// the spool while NoteSchedule cuts full windows into it, and the sealed
// file still decodes to the demo the same run gives in memory.
func TestTimedFlushesInterleaveWindowCuts(t *testing.T) {
	const n = 3*memWindow + 777
	mem := NewRecorder(StrategyQueue, 11, 22)
	cutRun(mem, n, nil)
	want := mem.Finish(n)

	path := filepath.Join(t.TempDir(), "timed.demo2")
	r, err := NewStreamingRecorder(path, StrategyQueue, 11, 22, StreamOptions{FlushInterval: 20 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	cutRun(r, n, nil)
	if !r.Spilled() {
		t.Fatal("no timed flush ran during the recording")
	}
	if err := r.Close(n); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the timed-flush file decodes to another demo than the in-memory recording")
	}
}
