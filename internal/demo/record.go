package demo

import (
	"sync"
)

// Recorder accumulates the constraint streams of an execution being
// recorded. It is safe for concurrent use: the scheduler appends schedule,
// signal and async events while the syscall layer appends syscall records.
//
// For the queue strategy the interleaving is stored exactly as §4.2
// describes: a first-tick map plus a per-critical-section "next tick"
// stream. We store the stream as deltas (next tick − current tick, 0 for
// "never scheduled again") so that a thread scheduled many times in
// succession yields a run of 1s, which the RLE coder collapses.
//
// A Recorder built with NewStreamingRecorder additionally spools every
// stream to an append-only v2 container on disk as the run executes (see
// stream.go); the in-memory slices then hold only the window not yet
// flushed, so arbitrarily long recordings run in bounded memory and the
// recording of a crashing run survives the crash.
type Recorder struct {
	mu       sync.Mutex
	strategy Strategy
	seed1    uint64
	seed2    uint64

	// Queue-stream accumulation state, all indexed densely: TIDs are
	// assigned densely from 0 and NoteSchedule runs once per tick, so the
	// hot path is two slice stores and an amortised append — no map
	// lookups, no per-tick reallocation. A zero in queueFirst/lastTick
	// means "never scheduled" (ticks are 1-based).
	//
	// When streaming, queueDelta is a window: index i holds the delta for
	// absolute slot stream.deltaBase+i, and flushed slots are shifted out.
	queueFirst []uint64 // tid -> first tick
	queueDelta []uint64 // slot - deltaBase -> delta to the thread's next tick
	lastTick   []uint64 // tid -> most recent tick

	signals  []SignalEvent
	asyncs   []AsyncEvent
	syscalls []SyscallRecord

	outputHash uint64
	// hashInited tracks whether outputHash holds live FNV state. The
	// previous code used outputHash == 0 as the "uninitialized" sentinel,
	// so FNV state that legitimately landed on 0 mid-stream was re-seeded
	// with the offset basis on the next MixOutput and the hash stopped
	// being a pure function of the output bytes. An empty output stream
	// still hashes to 0 on disk, preserving every existing demo.
	hashInited bool

	// stream is non-nil for streaming recorders. It is set once before
	// the Recorder is shared and never mutated, so nil checks outside the
	// mutex are safe.
	stream *streamState
}

// NewRecorder returns an in-memory Recorder for the given strategy and
// PRNG seeds; Finish freezes it into a Demo.
func NewRecorder(s Strategy, seed1, seed2 uint64) *Recorder {
	return &Recorder{
		strategy: s,
		seed1:    seed1,
		seed2:    seed2,
	}
}

// NoteSchedule records that thread tid executed the critical section with
// (1-based) tick number tick. Only meaningful for the queue strategy; the
// random strategy's schedule is implied by the seeds, so callers skip this
// (and call NoteTick instead when streaming).
func (r *Recorder) NoteSchedule(tid int32, tick uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := uint64(0)
	if r.stream != nil {
		base = r.stream.deltaBase
	}
	need := tick - base // window length covering slot tick-1
	if uint64(cap(r.queueDelta)) < need {
		grown := make([]uint64, need, growCap(cap(r.queueDelta), need))
		copy(grown, r.queueDelta)
		r.queueDelta = grown
	} else if uint64(len(r.queueDelta)) < need {
		// Zero the extension explicitly: after a streaming flush shifts
		// the window down, the backing array's tail holds stale deltas.
		old := len(r.queueDelta)
		r.queueDelta = r.queueDelta[:need]
		for i := old; i < int(need); i++ {
			r.queueDelta[i] = 0
		}
	}
	for int(tid) >= len(r.lastTick) {
		r.lastTick = append(r.lastTick, 0)
		r.queueFirst = append(r.queueFirst, 0)
	}
	if last := r.lastTick[tid]; last != 0 {
		if slot := last - 1; slot >= base {
			r.queueDelta[slot-base] = tick - last
		} else {
			// The thread's previous slot was already flushed: emit a
			// backfill patch in the next chunk. A reader that never sees
			// the patch (the file was cut before it) keeps the slot's 0,
			// which correctly means "never scheduled again within that
			// shorter prefix".
			r.stream.patches = append(r.stream.patches, patchEntry{slot: slot, delta: tick - last})
		}
	} else {
		r.queueFirst[tid] = tick
		if r.stream != nil {
			r.stream.firsts = append(r.stream.firsts, firstEntry{tid: tid, tick: tick})
		}
	}
	r.lastTick[tid] = tick
	if r.stream != nil {
		r.latchLocked(tick)
	}
}

// NoteTick latches tick as the latest completed critical section for the
// streaming writer's footer candidates. Strategies whose schedule is
// implied by the seeds (everything except queue, whose NoteSchedule
// already latches) call this once per tick when streaming; it is a no-op
// for in-memory recorders.
func (r *Recorder) NoteTick(tick uint64) {
	if r.stream == nil {
		return
	}
	r.mu.Lock()
	r.latchLocked(tick)
	r.mu.Unlock()
}

// growCap doubles the capacity until it covers need (minimum 1024 slots,
// 8 KiB — one page of deltas — so short recordings do not resize at all).
// Doubling that would overflow clamps to need exactly instead of wrapping
// to zero and spinning forever.
func growCap(cur int, need uint64) int {
	c := uint64(cur)
	if c < 1024 {
		c = 1024
	}
	for c < need {
		next := c * 2
		if next < c {
			c = need
			break
		}
		c = next
	}
	return int(c)
}

// AddSignal appends a SIGNAL stream entry and returns its stream index
// (the offset trace events carry). Indices are global across streaming
// flushes: entries already written to disk still count.
func (r *Recorder) AddSignal(ev SignalEvent) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.signals = append(r.signals, ev)
	if st := r.stream; st != nil {
		return st.sigBase + len(r.signals) - 1
	}
	return len(r.signals) - 1
}

// AddAsync appends an ASYNC stream entry and returns its stream index.
func (r *Recorder) AddAsync(ev AsyncEvent) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.asyncs = append(r.asyncs, ev)
	if st := r.stream; st != nil {
		return st.asyncBase + len(r.asyncs) - 1
	}
	return len(r.asyncs) - 1
}

// AddSyscall appends a SYSCALL stream entry and returns its stream index.
func (r *Recorder) AddSyscall(rec SyscallRecord) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syscalls = append(r.syscalls, rec)
	if st := r.stream; st != nil {
		return st.sysBase + len(r.syscalls) - 1
	}
	return len(r.syscalls) - 1
}

// MixOutput folds an observable output byte sequence into the output hash
// used for soft-desync detection (FNV-1a over the concatenated stream).
func (r *Recorder) MixOutput(p []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.hashInited {
		r.outputHash = fnvOffsetBasis
		r.hashInited = true
	}
	r.outputHash = mixHash(r.outputHash, p)
}

const fnvOffsetBasis = 1469598103934665603

// HashOutput returns the output hash a recorder holds after mixing p, for
// p split into any non-empty pieces: 0 for no output.
func HashOutput(p []byte) uint64 {
	if len(p) == 0 {
		return 0
	}
	return mixHash(fnvOffsetBasis, p)
}

// mixHash folds p into FNV-1a state h. Callers seed h with fnvOffsetBasis
// on the first byte of output (tracking initialization explicitly — a
// state value of 0 is a legitimate mid-stream state, not a sentinel).
func mixHash(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// SyscallCount reports the number of syscall records so far (including,
// for streaming recorders, records already flushed to disk).
func (r *Recorder) SyscallCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.stream; st != nil {
		return st.sysBase + len(r.syscalls)
	}
	return len(r.syscalls)
}

// Finish freezes the recording into a Demo. finalTick is the scheduler's
// tick counter at termination. Finish is only meaningful for in-memory
// recorders; a streaming recorder's flushed prefix is no longer in memory,
// so its demo is obtained by Close followed by ReadFile on the stream
// path.
func (r *Recorder) Finish(finalTick uint64) *Demo {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stream != nil {
		panic("demo: Finish called on a streaming Recorder; Close it and read the demo back from its file")
	}
	d := &Demo{
		Strategy:   r.strategy,
		Seed1:      r.seed1,
		Seed2:      r.seed2,
		FinalTick:  finalTick,
		Signals:    append([]SignalEvent(nil), r.signals...),
		Asyncs:     append([]AsyncEvent(nil), r.asyncs...),
		Syscalls:   append([]SyscallRecord(nil), r.syscalls...),
		OutputHash: r.outputHash,
	}
	if r.strategy == StrategyQueue {
		d.Queue.FirstTick = make(map[int32]uint64)
		for tid, t := range r.queueFirst {
			if t != 0 {
				d.Queue.FirstTick[int32(tid)] = t
			}
		}
		d.Queue.Ticks = append([]uint64(nil), r.queueDelta...)
	}
	return d
}
