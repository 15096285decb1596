package demo

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/prng"
)

// What a recording and its decode allocate. A recorder without a file
// holds a bounded QUEUE window plus the batches it cut from it, encoded,
// and a decode sizes each array once, however many batches the stream
// was cut into.

// cutRun records into r five threads over n ticks: thread 4 runs once
// every 5,000 ticks, so its next-tick deltas reach back across several
// window cuts, and threads 0–3 interleave at random. Signals, asyncs,
// output and syscalls land along the way, some syscalls with an empty
// buffer or a long zero one. after, when not nil, runs after each tick.
// cutRun returns the thread of every tick.
func cutRun(r *Recorder, n int, after func(tick int)) []int32 {
	rng := prng.New(7, 9)
	tids := make([]int32, 0, n)
	for tick := 1; tick <= n; tick++ {
		tid := int32(rng.Intn(4))
		if tick%5000 == 1 {
			tid = 4
		}
		tids = append(tids, tid)
		r.NoteSchedule(tid, uint64(tick))
		switch tick % 11 {
		case 3:
			r.AddSignal(SignalEvent{TID: tid, Tick: uint64(tick), Sig: 15})
		case 5:
			r.AddAsync(AsyncEvent{Kind: AsyncTimerWakeup, Tick: uint64(tick), TID: tid})
		case 7:
			r.AddSyscall(SyscallRecord{TID: tid, Kind: 3, Ret: int64(tick), Bufs: [][]byte{[]byte(fmt.Sprint(tick)), {}}})
		case 9:
			r.AddSyscall(SyscallRecord{TID: tid, Kind: 4, Ret: 64, Bufs: [][]byte{make([]byte, 64)}})
		}
		if tick%6 == 0 {
			r.MixOutput([]byte{byte(tick)})
		}
		if after != nil {
			after(tick)
		}
	}
	return tids
}

// TestInMemoryCutsMatchStreamed: a recording without a file that crosses
// several window cuts, with backfill patches landing across them, decodes
// to the demo the same run recorded to a file gives, kept or discarded,
// though the file was flushed at other ticks. Its QUEUE stream is the
// one the schedule implies, and the recorder held no more than one window
// of it decoded.
func TestInMemoryCutsMatchStreamed(t *testing.T) {
	const n = 3*memWindow + 777
	mem := NewRecorder(StrategyQueue, 11, 22)
	tids := cutRun(mem, n, nil)
	if len(mem.spool) == 0 || cap(mem.queueDelta) > memWindow {
		t.Fatalf("recorder kept %d slots decoded and spooled %d bytes; want at most %d slots and a spool",
			cap(mem.queueDelta), len(mem.spool), memWindow)
	}
	got := mem.Finish(n)

	want := make([]uint64, n)
	next := map[int32]int{}
	for i := n - 1; i >= 0; i-- {
		if j, ok := next[tids[i]]; ok {
			want[i] = uint64(j - i)
		}
		next[tids[i]] = i
	}
	if !reflect.DeepEqual(got.Queue.Ticks, want) {
		t.Fatal("the QUEUE stream is not the one the schedule implies")
	}

	streamed := func(discard bool) *Demo {
		t.Helper()
		path := filepath.Join(t.TempDir(), "cut.demo2")
		r, err := NewStreamingRecorder(path, StrategyQueue, 11, 22, StreamOptions{FlushInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		cutRun(r, n, func(tick int) {
			if tick%1000 == 0 {
				if err := r.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if discard {
			d, err := r.Discard(n)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		if err := r.Close(n); err != nil {
			t.Fatal(err)
		}
		d, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if !reflect.DeepEqual(got, streamed(false)) {
		t.Error("the in-memory demo differs from the kept file's")
	}
	if !reflect.DeepEqual(got, streamed(true)) {
		t.Error("the in-memory demo differs from the discarded file's")
	}
	if d, err := mem.Discard(n); err != nil || !reflect.DeepEqual(d, got) {
		t.Errorf("Discard's demo differs from Finish's (err %v)", err)
	}
}

// allocated returns the bytes and objects one call of f allocates,
// averaged over runs calls after a warm-up call.
func allocated(runs int, f func()) (bytes uint64, objects float64) {
	objects = testing.AllocsPerRun(runs, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs), objects
}

// windowLimit bounds what recording roundRobinTicks ticks and ending the
// recording allocate: half of the 2.89 MB a recorder allocated while it
// kept every tick in a doubling window.
const (
	roundRobinTicks = 100_000
	windowLimit     = 2_893_217 / 2
)

// roundRobin records roundRobinTicks ticks of three round-robin threads.
func roundRobin(r *Recorder) {
	for tick := uint64(1); tick <= roundRobinTicks; tick++ {
		r.NoteSchedule(int32((tick-1)%3), tick)
	}
}

// TestInMemoryRecordingAllocatesWindowNotTicks: recording 100k ticks of
// three round-robin threads without a file, then Finish, allocates the
// decoded demo's 800 KB of ticks plus a bounded window and spool, within
// windowLimit.
func TestInMemoryRecordingAllocatesWindowNotTicks(t *testing.T) {
	const n = roundRobinTicks
	got, _ := allocated(5, func() {
		r := NewRecorder(StrategyQueue, 1, 2)
		roundRobin(r)
		if d := r.Finish(n); len(d.Queue.Ticks) != n {
			t.Fatalf("Finish decoded %d ticks, want %d", len(d.Queue.Ticks), n)
		}
	})
	if got > windowLimit {
		t.Fatalf("a %d-tick recording and its Finish allocate %d bytes, want at most %d", n, got, windowLimit)
	}
}

// TestFileRecordingAllocatesWindowNotTicks: a recorder with a file cuts
// its windows into the spool by the same rule, so the same 100k ticks
// recorded with no timed flush between them, then Close, stay within
// windowLimit too; and the sealed file decodes to the in-memory demo.
func TestFileRecordingAllocatesWindowNotTicks(t *testing.T) {
	const n = roundRobinTicks
	path := filepath.Join(t.TempDir(), "window.demo2")
	got, _ := allocated(5, func() {
		r, err := NewStreamingRecorder(path, StrategyQueue, 1, 2, StreamOptions{FlushInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		roundRobin(r)
		if err := r.Close(n); err != nil {
			t.Fatal(err)
		}
	})
	if got > windowLimit {
		t.Fatalf("a %d-tick recording to a file and its Close allocate %d bytes, want at most %d", n, got, windowLimit)
	}
	d, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewRecorder(StrategyQueue, 1, 2)
	roundRobin(mem)
	if !reflect.DeepEqual(d, mem.Finish(n)) {
		t.Fatal("the sealed file decodes to another demo than the in-memory recording")
	}
}

// netloadRun records into r a run shaped like the netload workload's
// recording of 200 connections: five threads over 5,242 ticks, one
// signal, and 1,201 syscall records, half of them with one buffer, an
// epoll_wait's 6-byte event or a read's 12-byte request. flush, when not
// nil, runs after each tick.
func netloadRun(r *Recorder, flush func(tick uint64)) uint64 {
	const ticks, syscalls = 5242, 1201
	rng := prng.New(3, 5)
	sys := 0
	for tick := uint64(1); tick <= ticks; tick++ {
		tid := int32(rng.Intn(5))
		r.NoteSchedule(tid, tick)
		if tick%4 == 0 && sys < syscalls {
			rec := SyscallRecord{TID: tid, Kind: 7, Ret: -1, Errno: 1}
			switch sys % 6 {
			case 0, 3:
				rec = SyscallRecord{TID: tid, Kind: 22, Ret: 1, Bufs: [][]byte{{byte(sys), 0, 0, 0, 1, 0}}}
			case 1:
				rec = SyscallRecord{TID: tid, Kind: 7, Ret: 21}
			case 4:
				rec = SyscallRecord{TID: tid, Kind: 3, Ret: 12, Bufs: [][]byte{[]byte(fmt.Sprintf("GET /item%02d\n", sys%100))}}
			case 5:
				rec = SyscallRecord{TID: tid, Kind: 5, Ret: 15}
			}
			r.AddSyscall(rec)
			sys++
		}
		if tick == ticks-50 {
			r.AddSignal(SignalEvent{TID: 0, Tick: tick, Sig: 15})
		}
		if flush != nil {
			flush(tick)
		}
	}
	return ticks
}

// TestDecodeStreamAllocatesOncePerArray: one recording at netload's
// shape, written in 1, 8 and 64 flush batches, decodes to one demo with
// the same number of allocations each time, at most half the bytes the
// decoder allocated when it grew its arrays chunk by chunk (298 KB in 29
// objects for one batch, 508 KB in 466 for 64).
func TestDecodeStreamAllocatesOncePerArray(t *testing.T) {
	var first *Demo
	var firstObjects float64
	for _, batches := range []uint64{1, 8, 64} {
		path := filepath.Join(t.TempDir(), "netload.demo2")
		r, err := NewStreamingRecorder(path, StrategyQueue, 1, 2, StreamOptions{FlushInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		final := netloadRun(r, func(tick uint64) {
			if batches > 1 && tick%(5242/batches) == 0 && tick < 5242 {
				if err := r.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if err := r.Close(final); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var d *Demo
		bytes, objects := allocated(20, func() {
			if d, err = DecodeStream(data); err != nil {
				t.Fatal(err)
			}
		})
		if limit := uint64(298_064 / 2); bytes > limit {
			t.Errorf("%d batches: decoding allocates %d bytes, want at most %d", batches, bytes, limit)
		}
		if first == nil {
			first, firstObjects = d, objects
			continue
		}
		if objects != firstObjects {
			t.Errorf("%d batches: decoding allocates %.1f objects, one batch %.1f", batches, objects, firstObjects)
		}
		if !reflect.DeepEqual(d, first) {
			t.Errorf("%d batches: the demo differs from one batch's", batches)
		}
	}
}
