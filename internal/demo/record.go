package demo

import (
	"sync"
	"time"
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
// Every Recorder is the v2 stream writer (stream.go). Whenever its QUEUE
// window reaches memWindow slots it cuts the windows into an in-memory
// spool of encoded batches, the bytes a flush would write, so it holds a
// bounded window plus encoded bytes, not 8 bytes a tick. One built with
// NewStreamingRecorder appends the spool to an append-only file at each
// flush, so arbitrarily long recordings run in bounded memory and the
// recording of a crashing run survives the crash. One built with
// NewRecorder has no file: Finish or Discard decodes the spool and one
// final batch.
type Recorder struct {
	mu       sync.Mutex // guards the windows, spools, latch and bases
	strategy Strategy
	seed1    uint64
	seed2    uint64

	// Queue-stream accumulation state, indexed densely: TIDs are assigned
	// densely from 0 and NoteSchedule runs once per tick, so the hot path
	// is two slice stores and an amortised append — no map lookups, no
	// per-tick reallocation. queueDelta is a window: index i holds the
	// delta for absolute slot deltaBase+i, and flushed slots are shifted
	// out. A zero in lastTick means "never scheduled" (ticks are 1-based).
	queueDelta []uint64 // slot - deltaBase -> delta to the thread's next tick
	lastTick   []uint64 // tid -> most recent tick

	// spool holds the batches cut from the windows, encoded as the file
	// holds them after the header, until a flush writes them. pay is the
	// payload scratch of every cut.
	spool []byte
	pay   []byte

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

	// Latch: the newest point at which the recording may be cut and still
	// be a consistent prefix, updated at every tick.
	footTick uint64
	footHash uint64
	sigN     int // absolute SIGNAL count at the latch
	asyncN   int
	sysN     int

	// Absolute base offsets of the windows: entries below the base are
	// already flushed.
	deltaBase uint64
	sigBase   int
	asyncBase int
	sysBase   int

	// Spools feeding the next queue chunk.
	firsts  []firstEntry
	patches []patchEntry

	// path and opts are set before the Recorder is shared and never
	// change. Everything after them belongs to whoever holds flushMu: the
	// timed flush, Flush, Close, Discard or Finish.
	path    string // "" for a recorder without a file
	opts    StreamOptions
	flushMu sync.Mutex
	// f is nil until the recording spills.
	f StreamFile
	// timer runs the timed flush; it re-arms itself after each one. It is
	// nil for a recorder without a file.
	timer *time.Timer
	// werr is the first write, sync, spill or close error. It is sticky:
	// nothing more is written, and Flush, Close and Discard report it.
	werr error
	// ended is set by Close or Discard.
	ended bool

	// enc holds the bytes a flush writes or a decode reads; a flush swaps
	// it with the spool, so neither buffer is reallocated.
	enc            []byte
	lastFooterTick uint64
}

// NewRecorder returns a Recorder for the given strategy and PRNG seeds
// that keeps its recording in memory; Finish or Discard decodes it into a
// Demo.
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
// and call NoteTick instead.
func (r *Recorder) NoteSchedule(tid int32, tick uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	need := tick - r.deltaBase // window length covering slot tick-1
	if uint64(cap(r.queueDelta)) < need {
		grown := make([]uint64, need, growCap(cap(r.queueDelta), need))
		copy(grown, r.queueDelta)
		r.queueDelta = grown
	} else if uint64(len(r.queueDelta)) < need {
		// Zero the extension explicitly: after a flush shifts the window
		// down, the backing array's tail holds stale deltas.
		old := len(r.queueDelta)
		r.queueDelta = r.queueDelta[:need]
		for i := old; i < int(need); i++ {
			r.queueDelta[i] = 0
		}
	}
	for int(tid) >= len(r.lastTick) {
		r.lastTick = append(r.lastTick, 0)
	}
	if last := r.lastTick[tid]; last == 0 {
		r.firsts = append(r.firsts, firstEntry{tid: tid, tick: tick})
	} else if slot := last - 1; slot >= r.deltaBase {
		r.queueDelta[slot-r.deltaBase] = tick - last
	} else {
		// The thread's previous slot was already flushed: emit a backfill
		// patch in the next chunk. A reader that never sees the patch (the
		// file was cut before it) keeps the slot's 0, which correctly
		// means "never scheduled again within that shorter prefix".
		r.patches = append(r.patches, patchEntry{slot: slot, delta: tick - last})
	}
	r.lastTick[tid] = tick
	r.latchLocked(tick)
	if len(r.queueDelta) >= memWindow {
		r.spoolLocked(r.pending(false, 0), false)
	}
}

// memWindow is how many QUEUE slots a recorder holds decoded before it
// cuts them into its spool: 32 KiB of deltas, and a cut every few
// thousand ticks costs a queue chunk and a footer of framing.
const memWindow = 4096

// spoolLocked encodes b, a batch pending returned, into the spool and
// shifts it out of the windows. Caller holds r.mu.
func (r *Recorder) spoolLocked(b batch, final bool) {
	r.spool = r.appendBatch(r.spool, &b, final)
	r.shiftLocked(&b)
}

// NoteTick latches tick as the latest completed critical section for the
// writer's footer candidates. Strategies whose schedule is implied by the
// seeds (everything except queue, whose NoteSchedule already latches)
// call this once per tick.
func (r *Recorder) NoteTick(tick uint64) {
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
// (the offset trace events carry). Indices are global across flushes:
// entries already written to disk still count.
func (r *Recorder) AddSignal(ev SignalEvent) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.signals = append(r.signals, ev)
	return r.sigBase + len(r.signals) - 1
}

// AddAsync appends an ASYNC stream entry and returns its stream index.
func (r *Recorder) AddAsync(ev AsyncEvent) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.asyncs = append(r.asyncs, ev)
	return r.asyncBase + len(r.asyncs) - 1
}

// AddSyscall appends a SYSCALL stream entry and returns its stream index.
func (r *Recorder) AddSyscall(rec SyscallRecord) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syscalls = append(r.syscalls, rec)
	return r.sysBase + len(r.syscalls) - 1
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

// Finish returns the recording as a Demo; finalTick is the scheduler's
// tick counter at termination. It is the demo Discard would return, but
// Finish neither ends nor cuts the recording, so it may be called again.
// Finish is only meaningful for a recorder without a file; a streaming
// recorder's flushed prefix is no longer in memory, so its demo is
// obtained by Close followed by ReadFile on the stream path.
func (r *Recorder) Finish(finalTick uint64) *Demo {
	if r.path != "" {
		panic("demo: Finish called on a streaming Recorder; Close it and read the demo back from its file")
	}
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	d, err := r.decodeLocked(finalTick)
	if err != nil {
		panic("demo: an in-memory recording does not decode: " + err.Error())
	}
	return d
}
