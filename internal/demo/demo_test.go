package demo

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleDemo() *Demo {
	return &Demo{
		Strategy:  StrategyQueue,
		Seed1:     11,
		Seed2:     22,
		FinalTick: 9,
		Queue: Queue{
			FirstTick: map[int32]uint64{0: 1, 1: 4},
			Ticks:     []uint64{1, 1, 0, 1, 1, 1, 0, 1, 0},
		},
		Signals: []SignalEvent{{TID: 1, Tick: 5, Sig: 15}},
		Asyncs: []AsyncEvent{
			{Kind: AsyncReschedule, Tick: 3, TID: 0},
			{Kind: AsyncSignalWakeup, Tick: 6, TID: 1},
		},
		Syscalls: []SyscallRecord{
			{TID: 0, Kind: 3, Ret: 42, Errno: 0, Bufs: [][]byte{[]byte("payload")}},
			{TID: 1, Kind: 9, Ret: -1, Errno: 5, Bufs: [][]byte{nil, []byte{1, 2, 3}}},
		},
		OutputHash: 0xdeadbeef,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := sampleDemo()
	enc := d.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Strategy != d.Strategy || got.Seed1 != d.Seed1 || got.Seed2 != d.Seed2 ||
		got.FinalTick != d.FinalTick || got.OutputHash != d.OutputHash {
		t.Error("header fields did not round-trip")
	}
	if !reflect.DeepEqual(got.Queue.FirstTick, d.Queue.FirstTick) {
		t.Errorf("queue first-tick map: got %v", got.Queue.FirstTick)
	}
	if !reflect.DeepEqual(got.Queue.Ticks, d.Queue.Ticks) {
		t.Errorf("queue ticks: got %v", got.Queue.Ticks)
	}
	if !reflect.DeepEqual(got.Signals, d.Signals) {
		t.Errorf("signals: got %v", got.Signals)
	}
	if !reflect.DeepEqual(got.Asyncs, d.Asyncs) {
		t.Errorf("asyncs: got %v", got.Asyncs)
	}
	if len(got.Syscalls) != len(d.Syscalls) {
		t.Fatalf("syscalls: got %d", len(got.Syscalls))
	}
	for i := range d.Syscalls {
		a, b := got.Syscalls[i], d.Syscalls[i]
		if a.TID != b.TID || a.Kind != b.Kind || a.Ret != b.Ret || a.Errno != b.Errno {
			t.Errorf("syscall %d header mismatch: %+v vs %+v", i, a, b)
		}
		if len(a.Bufs) != len(b.Bufs) {
			t.Fatalf("syscall %d buf count", i)
		}
		for j := range b.Bufs {
			if !bytes.Equal(a.Bufs[j], b.Bufs[j]) {
				t.Errorf("syscall %d buf %d mismatch", i, j)
			}
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := sampleDemo().Encode()
	b := sampleDemo().Encode()
	if !bytes.Equal(a, b) {
		t.Error("Encode is not deterministic (map iteration leaking?)")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := sampleDemo().Encode()
	if _, err := Decode(enc[:4]); err == nil {
		t.Error("truncated demo accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Error("missing end marker accepted")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 42, -42, 1 << 62, -(1 << 62)} {
		if unzigzag(zigzag(v)) != v {
			t.Errorf("zigzag round trip failed for %d", v)
		}
	}
	prop := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSectionSizes(t *testing.T) {
	d := sampleDemo()
	sizes := d.SectionSizes()
	if sizes["syscall"] <= 0 {
		t.Error("syscall section should have positive size")
	}
	total := 0
	for _, v := range sizes {
		total += v
	}
	if total > d.Size() {
		t.Errorf("section sizes sum %d exceeds total %d", total, d.Size())
	}
}

func TestRecorderQueueDeltas(t *testing.T) {
	r := NewRecorder(StrategyQueue, 1, 2)
	// Thread 0 runs ticks 1,2; thread 1 runs 3; thread 0 runs 4.
	r.NoteSchedule(0, 1)
	r.NoteSchedule(0, 2)
	r.NoteSchedule(1, 3)
	r.NoteSchedule(0, 4)
	d := r.Finish(4)
	if d.Queue.FirstTick[0] != 1 || d.Queue.FirstTick[1] != 3 {
		t.Fatalf("first ticks: %v", d.Queue.FirstTick)
	}
	want := []uint64{1, 2, 0, 0}
	if !reflect.DeepEqual(d.Queue.Ticks, want) {
		t.Fatalf("deltas = %v, want %v", d.Queue.Ticks, want)
	}
}

func TestReplayerScheduleReconstruction(t *testing.T) {
	r := NewRecorder(StrategyQueue, 1, 2)
	seq := []int32{0, 0, 1, 0, 1, 1}
	for i, tid := range seq {
		r.NoteSchedule(tid, uint64(i+1))
	}
	d := r.Finish(uint64(len(seq)))
	rep, err := NewReplayer(d, ReplayStrict)
	if err != nil {
		t.Fatal(err)
	}
	for i, tid := range seq {
		if got := rep.ScheduledAt(uint64(i + 1)); got != tid {
			t.Errorf("tick %d scheduled %d, want %d", i+1, got, tid)
		}
	}
	if rep.ScheduledAt(uint64(len(seq)+1)) != -1 {
		t.Error("past-the-end tick should report -1")
	}
}

func TestReplayerScheduleRoundTripProperty(t *testing.T) {
	prop := func(raw []uint8, nThreads uint8) bool {
		n := int32(nThreads%4) + 1
		r := NewRecorder(StrategyQueue, 1, 2)
		seq := make([]int32, len(raw))
		for i, b := range raw {
			seq[i] = int32(b) % n
			r.NoteSchedule(seq[i], uint64(i+1))
		}
		d := r.Finish(uint64(len(seq)))
		rep, err := NewReplayer(d, ReplayStrict)
		if err != nil {
			return false
		}
		for i, tid := range seq {
			if rep.ScheduledAt(uint64(i+1)) != tid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestReplayerSyscallCursor(t *testing.T) {
	d := &Demo{Strategy: StrategyRandom, Syscalls: []SyscallRecord{
		{TID: 0, Kind: 3, Ret: 1},
		{TID: 1, Kind: 9, Ret: 2},
	}}
	rep, err := NewReplayer(d, ReplayStrict)
	if err != nil {
		t.Fatal(err)
	}
	rec, replayed, err := rep.NextSyscall(0, 3, 1)
	if err != nil || !replayed || rec.Ret != 1 {
		t.Fatalf("first syscall: %v %v %v", rec, replayed, err)
	}
	if _, _, err := rep.NextSyscall(0, 3, 2); err == nil {
		t.Fatal("mismatched syscall accepted")
	}
	var de *DesyncError
	_, _, err = rep.NextSyscall(1, 9, 2)
	if !errors.As(err, &de) {
		// The previous mismatch consumed nothing; this matches.
		if err != nil {
			t.Fatalf("expected match after mismatch: %v", err)
		}
	}
}

// TestTolerantSyscallDivergence: under tolerant replay a syscall mismatch
// is not an error — the replay marks itself diverged, tells the caller to
// go live, and cuts off every remaining stream.
func TestTolerantSyscallDivergence(t *testing.T) {
	d := &Demo{Strategy: StrategyRandom, FinalTick: 9,
		Syscalls: []SyscallRecord{{TID: 0, Kind: 3, Ret: 1}},
		Signals:  []SignalEvent{{TID: 0, Tick: 5, Sig: 15}},
	}
	rep, err := NewReplayer(d, ReplayTolerantRecord)
	if err != nil {
		t.Fatal(err)
	}
	var seen []*DesyncError
	rep.OnDesync(func(de *DesyncError) { seen = append(seen, de) })
	if _, replayed, err := rep.NextSyscall(1, 7, 2); err != nil || replayed {
		t.Fatalf("tolerant mismatch: replayed=%v err=%v", replayed, err)
	}
	if !rep.DivergedNow() || len(seen) != 1 || seen[0].Stream != "SYSCALL" || seen[0].Tick != 2 {
		t.Fatalf("divergence not recorded: %+v", seen)
	}
	if sigs := rep.SignalsAt(0, 5); sigs != nil {
		t.Fatalf("diverged replay still delivered signals: %v", sigs)
	}
	if _, replayed, err := rep.NextSyscall(0, 3, 3); err != nil || replayed || len(seen) != 1 {
		t.Fatalf("diverged replay still replays syscalls: replayed=%v err=%v seen=%d", replayed, err, len(seen))
	}
	oc := rep.Outcome(9, nil)
	if oc.Err != nil || oc.Diverged == nil || oc.Diverged.Tick != 2 || oc.SoftDesync {
		t.Fatalf("tolerant outcome: %+v", oc)
	}
	// A strict replayer over the same streams reports leftovers as Err and
	// never a divergence.
	strict, _ := NewReplayer(d, ReplayStrict)
	soc := strict.Outcome(9, nil)
	if soc.Err == nil || soc.Diverged != nil {
		t.Fatalf("strict outcome: %+v", soc)
	}
}

func TestReplayerLeftovers(t *testing.T) {
	d := &Demo{Strategy: StrategyRandom, Signals: []SignalEvent{{TID: 0, Tick: 3, Sig: 15}}}
	rep, err := NewReplayer(d, ReplayStrict)
	if err != nil {
		t.Fatal(err)
	}
	if oc := rep.Outcome(10, nil); oc.Err == nil {
		t.Error("undelivered signal not reported")
	}
	rep2, _ := NewReplayer(d, ReplayStrict)
	if sigs := rep2.SignalsAt(0, 3); len(sigs) != 1 || sigs[0] != 15 {
		t.Fatalf("SignalsAt = %v", sigs)
	}
	if oc := rep2.Outcome(10, nil); oc.Err != nil {
		t.Errorf("leftovers after delivery: %v", oc.Err)
	}
	// A run that stopped on its own error keeps it: leftovers are expected.
	rep3, _ := NewReplayer(d, ReplayStrict)
	stop := errors.New("deadlock")
	if oc := rep3.Outcome(10, stop); oc.Err != stop {
		t.Errorf("Outcome replaced the run's error: %v", oc.Err)
	}
}

func TestSoftDesyncDetection(t *testing.T) {
	r := NewRecorder(StrategyRandom, 1, 2)
	r.MixOutput([]byte("hello"))
	d := r.Finish(5)
	rep, _ := NewReplayer(d, ReplayStrict)
	rep.MixOutput([]byte("hello"))
	if rep.Outcome(5, nil).SoftDesync {
		t.Error("identical output reported as soft desync")
	}
	rep2, _ := NewReplayer(d, ReplayStrict)
	rep2.MixOutput([]byte("world"))
	if !rep2.Outcome(5, nil).SoftDesync {
		t.Error("diverged output not reported")
	}
	// Under tolerant replay drifting output is the divergence.
	rep3, _ := NewReplayer(d, ReplayTolerantRecord)
	rep3.MixOutput([]byte("world"))
	if oc := rep3.Outcome(5, nil); oc.SoftDesync || oc.Diverged == nil {
		t.Errorf("tolerant output drift: %+v", oc)
	}
}

func TestStrategyStrings(t *testing.T) {
	if StrategyRandom.String() != "random" || StrategyQueue.String() != "queue" || StrategyPCT.String() != "pct" {
		t.Error("strategy names wrong")
	}
	if AsyncReschedule.String() != "reschedule" {
		t.Error("async kind names wrong")
	}
}
