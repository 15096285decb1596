// Demo mutation: the NodeFz-style search move that turns recorded demos
// into new trial candidates. Each operator takes a Validate-clean demo and
// produces a Validate-clean neighbour — a candidate schedule that a
// tolerant replay (ReplayTolerant*) then tests for feasibility. Operators
// never repair a candidate into plausibility: if the demo offers nothing
// for the operator to act on (no signals to drop, one thread's schedule to
// swap), the operator rejects with ErrNotApplicable and the caller tries
// another. Infeasibility of an applicable mutation is not the operator's
// problem — the tolerant replayer detects it at the exact tick it bites
// and falls back to the live strategy there, which is precisely the
// "mutated schedule may not be achievable" contract this engine relies on.
package demo

import (
	"errors"
	"fmt"

	"repro/internal/prng"
)

// ErrNotApplicable is an operator's rejection: the demo has nothing for
// this operator to mutate. Callers try a different operator (or ancestor).
var ErrNotApplicable = errors.New("demo: mutation operator not applicable to this demo")

// MutationOp is one composable schedule mutation. Apply returns a mutated
// deep copy of d (never touching d itself), or an error wrapping
// ErrNotApplicable. Implementations draw all randomness from rng so a
// mutation chain is a pure function of (ancestor, seed).
type MutationOp interface {
	// Name identifies the operator in lineage metadata ("swap-queue").
	Name() string
	Apply(d *Demo, rng *prng.Source) (*Demo, error)
}

// DefaultOps returns the full operator set in its canonical order.
func DefaultOps() []MutationOp {
	return []MutationOp{
		swapQueueOp{},
		shiftAsyncOp{},
		dropSignalOp{},
		dupSignalOp{},
		truncateExtendOp{},
		injectReschedOp{},
	}
}

// MutateOnce applies one operator drawn from ops to d: operators are tried
// in an rng-permuted order until one applies and yields a Validate-clean
// candidate. Returns the mutant and the applied operator's name, or an
// error wrapping ErrNotApplicable when no operator applies to d.
func MutateOnce(d *Demo, rng *prng.Source, ops []MutationOp) (*Demo, string, error) {
	if len(ops) == 0 {
		ops = DefaultOps()
	}
	for _, i := range rng.Perm(len(ops)) {
		op := ops[i]
		m, err := op.Apply(d, rng)
		if err != nil {
			if errors.Is(err, ErrNotApplicable) {
				continue
			}
			return nil, "", fmt.Errorf("demo: operator %s: %w", op.Name(), err)
		}
		if verr := m.Validate(); verr != nil {
			// An operator that emits an invalid demo is a bug in the
			// operator, not a rejection; surface it loudly.
			return nil, "", fmt.Errorf("demo: operator %s produced an invalid demo: %w", op.Name(), verr)
		}
		return m, op.Name(), nil
	}
	return nil, "", fmt.Errorf("%w (tried %d operators)", ErrNotApplicable, len(ops))
}

// TruncateTo returns a copy of d whose constrained prefix ends at tick T:
// the queue schedule, signal and async streams are cut at T while syscall
// records are kept in full (replay consumes them positionally; extra
// records surface as leftovers, which strict validation-by-replay rejects
// and tolerant replay folds into the divergence). The copy is NOT marked
// Truncated — replay is meant to run past T on the live strategy, not stop
// there; a caller that wants the replay to stop at T sets the flag.
func (d *Demo) TruncateTo(T uint64) *Demo {
	c := d.Clone()
	c.FinalTick = T
	for tid, first := range c.Queue.FirstTick {
		if first > T {
			delete(c.Queue.FirstTick, tid)
		}
	}
	if uint64(len(c.Queue.Ticks)) > T {
		c.Queue.Ticks = c.Queue.Ticks[:T]
	}
	c.Signals = keepThrough(c.Signals, T, func(ev SignalEvent) uint64 { return ev.Tick })
	c.Asyncs = keepThrough(c.Asyncs, T, func(ev AsyncEvent) uint64 { return ev.Tick })
	return c
}

// keepThrough filters evs down to those with tick <= T, in place.
func keepThrough[E any](evs []E, T uint64, tick func(E) uint64) []E {
	kept := evs[:0]
	for _, ev := range evs {
		if tick(ev) <= T {
			kept = append(kept, ev)
		}
	}
	return kept
}

// queueFromSchedule re-encodes an explicit per-tick schedule (1-based,
// schedule[0] unused) into the QUEUE stream's first-tick map + delta
// chains, the inverse of queueSchedule.
func queueFromSchedule(schedule []int32) Queue {
	q := Queue{FirstTick: make(map[int32]uint64)}
	if len(schedule) <= 1 {
		return q
	}
	q.Ticks = make([]uint64, len(schedule)-1)
	last := make(map[int32]uint64)
	for t := uint64(1); t < uint64(len(schedule)); t++ {
		tid := schedule[t]
		if prev, ok := last[tid]; ok {
			q.Ticks[prev-1] = t - prev
		} else {
			q.FirstTick[tid] = t
		}
		last[tid] = t
	}
	return q
}

// swapQueueOp swaps two adjacent ticks of a queue demo's schedule,
// reordering one pair of critical sections — the minimal schedule edit.
type swapQueueOp struct{}

func (swapQueueOp) Name() string { return "swap-queue" }

func (swapQueueOp) Apply(d *Demo, rng *prng.Source) (*Demo, error) {
	if d.Strategy != StrategyQueue || d.FinalTick < 2 {
		return nil, ErrNotApplicable
	}
	schedule, err := d.queueSchedule()
	if err != nil {
		return nil, fmt.Errorf("%w: queue stream does not reconstruct: %v", ErrNotApplicable, err)
	}
	// A swap inside one thread's run is the identity; probe a few random
	// positions for a tick pair owned by different threads.
	for attempt := 0; attempt < 8; attempt++ {
		t := 1 + rng.Uint64n(d.FinalTick-1)
		if schedule[t] == schedule[t+1] {
			continue
		}
		c := d.Clone()
		swapped := append([]int32(nil), schedule...)
		swapped[t], swapped[t+1] = swapped[t+1], swapped[t]
		c.Queue = queueFromSchedule(swapped)
		return c, nil
	}
	return nil, fmt.Errorf("%w: no adjacent tick pair with distinct threads found", ErrNotApplicable)
}

// shiftAsyncOp moves one ASYNC delivery a few ticks earlier or later,
// perturbing when a wakeup or forced reschedule lands.
type shiftAsyncOp struct{}

func (shiftAsyncOp) Name() string { return "shift-async" }

func (shiftAsyncOp) Apply(d *Demo, rng *prng.Source) (*Demo, error) {
	if len(d.Asyncs) == 0 || d.FinalTick == 0 {
		return nil, ErrNotApplicable
	}
	c := d.Clone()
	i := rng.Intn(len(c.Asyncs))
	delta := 1 + rng.Uint64n(4)
	tick := c.Asyncs[i].Tick
	if rng.Bool() {
		tick += delta
		if tick > c.FinalTick {
			tick = c.FinalTick
		}
	} else if tick > delta {
		tick -= delta
	} else {
		tick = 0
	}
	if tick == c.Asyncs[i].Tick {
		return nil, fmt.Errorf("%w: shift clamped to the original tick", ErrNotApplicable)
	}
	c.Asyncs[i].Tick = tick
	return c, nil
}

// dropSignalOp removes one recorded SIGNAL delivery.
type dropSignalOp struct{}

func (dropSignalOp) Name() string { return "drop-signal" }

func (dropSignalOp) Apply(d *Demo, rng *prng.Source) (*Demo, error) {
	if len(d.Signals) == 0 {
		return nil, ErrNotApplicable
	}
	c := d.Clone()
	i := rng.Intn(len(c.Signals))
	c.Signals = append(c.Signals[:i], c.Signals[i+1:]...)
	return c, nil
}

// dupSignalOp duplicates one recorded SIGNAL delivery, so the handler runs
// twice at the same boundary.
type dupSignalOp struct{}

func (dupSignalOp) Name() string { return "dup-signal" }

func (dupSignalOp) Apply(d *Demo, rng *prng.Source) (*Demo, error) {
	if len(d.Signals) == 0 {
		return nil, ErrNotApplicable
	}
	c := d.Clone()
	c.Signals = append(c.Signals, c.Signals[rng.Intn(len(c.Signals))])
	return c, nil
}

// truncateExtendOp cuts the constrained prefix at a random tick; the
// replay then extends past it on the live strategy, resampling the suffix
// while holding the prefix fixed.
type truncateExtendOp struct{}

func (truncateExtendOp) Name() string { return "truncate-extend" }

func (truncateExtendOp) Apply(d *Demo, rng *prng.Source) (*Demo, error) {
	if d.FinalTick < 2 {
		return nil, ErrNotApplicable
	}
	return d.TruncateTo(1 + rng.Uint64n(d.FinalTick-1)), nil
}

// injectReschedOp inserts an AsyncReschedule at a random tick. For the
// seed-determined strategies (random, PCT, delay) — whose demos usually
// carry empty SIGNAL/ASYNC streams — this is the key lever: the injected
// reschedule consumes one extra strategy decision (and, under random, a
// PRNG draw) at that tick, so the schedule prefix replays unchanged and
// the suffix re-randomises from the injection point.
type injectReschedOp struct{}

func (injectReschedOp) Name() string { return "inject-resched" }

func (injectReschedOp) Apply(d *Demo, rng *prng.Source) (*Demo, error) {
	if d.FinalTick == 0 {
		return nil, ErrNotApplicable
	}
	c := d.Clone()
	tick := 1 + rng.Uint64n(c.FinalTick)
	c.Asyncs = append(c.Asyncs, AsyncEvent{Kind: AsyncReschedule, Tick: tick})
	return c, nil
}
