// Package vclock implements the vector clocks that underpin the tsan11-model
// race detector's happens-before relation (Lamport 1978; FastTrack-style use
// as in the original ThreadSanitizer).
//
// A clock maps thread IDs to epochs. Thread IDs are small dense integers
// assigned by the scheduler, so clocks are slices indexed by TID. Clocks grow
// on demand; absent entries are epoch 0.
//
// The detector's release operations publish immutable Snapshots of a
// thread's clock instead of deep copies. A Snapshot aliases the clock's
// storage copy-on-write: the clock marks itself shared when snapshotted and
// copies its storage before the next mutation that a snapshot could
// observe. The one mutation exempted is the owner ticking its own entry —
// the snapshot stamps the owner's epoch at capture time and overrides that
// slot on every read — which is what makes a release-store loop allocation
// free: each store shares storage and only the 3-word Snapshot header (a
// value, not a pointer) is copied around.
package vclock

import (
	"fmt"
	"strings"
)

// TID identifies a thread under test. TIDs are assigned densely from 0 by
// the scheduler (0 is the main thread).
type TID int32

// Epoch is a per-thread logical timestamp.
type Epoch uint64

// Clock is a vector clock. The zero value is the empty clock (all epochs 0)
// and is ready to use.
type Clock struct {
	epochs []Epoch
	// gen counts mutations; release paths use it to share one snapshot
	// per epoch ("generation-stamped": a cached snapshot is valid exactly
	// while gen is unchanged).
	gen uint64
	// shared marks epochs as aliased by at least one Snapshot: the next
	// mutation of any entry other than snapTID's must copy first.
	shared  bool
	snapTID TID
}

// New returns a clock pre-sized for n threads. Sizes are hints only; all
// operations grow clocks on demand.
func New(n int) *Clock {
	return &Clock{epochs: make([]Epoch, n)}
}

// Get returns the epoch recorded for tid (0 if absent).
func (c *Clock) Get(tid TID) Epoch {
	if int(tid) >= len(c.epochs) {
		return 0
	}
	return c.epochs[tid]
}

// Gen returns the clock's mutation generation. It changes on every Set,
// Tick, Assign or Reset, and on every Join or JoinSnapshot that raises an
// entry, so equal generations mean an unchanged clock; release paths key
// their shared snapshots on it. A join the clock already covers changes
// nothing, so it keeps the generation and the snapshots sharing its
// storage.
func (c *Clock) Gen() uint64 { return c.gen }

// unshare severs outstanding snapshots from the clock's storage by copying
// it. Called before any mutation a snapshot could observe.
func (c *Clock) unshare() {
	dup := make([]Epoch, len(c.epochs))
	copy(dup, c.epochs)
	c.epochs = dup
	c.shared = false
}

// own prepares entry tid for an in-place write. The owner's own entry is
// exempt from copy-on-write because snapshots stamp it at capture time.
func (c *Clock) own(tid TID) {
	if c.shared && tid != c.snapTID {
		c.unshare()
	}
}

// Set records epoch e for tid, growing the clock if needed.
func (c *Clock) Set(tid TID, e Epoch) {
	c.own(tid)
	c.grow(int(tid) + 1)
	c.epochs[tid] = e
	c.gen++
}

// Tick increments tid's epoch and returns the new value.
func (c *Clock) Tick(tid TID) Epoch {
	c.own(tid)
	c.grow(int(tid) + 1)
	c.epochs[tid]++
	c.gen++
	return c.epochs[tid]
}

func (c *Clock) grow(n int) {
	if n <= len(c.epochs) {
		return
	}
	if n <= cap(c.epochs) {
		// Storage reused after a Reset may hold stale epochs beyond the
		// current length; re-zero what the extension exposes. Snapshots
		// never observe this region — their length was fixed at capture.
		tail := c.epochs[len(c.epochs):n]
		for i := range tail {
			tail[i] = 0
		}
		c.epochs = c.epochs[:n]
		return
	}
	grown := make([]Epoch, n, 2*n)
	copy(grown, c.epochs)
	c.epochs = grown
	c.shared = false
}

// trimmed returns es without trailing zero epochs. Absent entries read as
// epoch 0, so the trimmed slice is semantically identical; copying only the
// trimmed prefix is what keeps Copy/Assign/Join O(highest live TID) instead
// of O(peak width) when a wide clock has gone quiet at the top.
func trimmed(es []Epoch) []Epoch {
	n := len(es)
	for n > 0 && es[n-1] == 0 {
		n--
	}
	return es[:n]
}

// Join merges other into c, taking the pointwise maximum. Join implements
// the acquire side of synchronisation. Trailing zeros in other never force
// c to grow, and a clock that already covers other is left untouched: it
// is neither copied nor bumped to a new generation.
func (c *Clock) Join(other *Clock) {
	if other == nil {
		return
	}
	src := trimmed(other.epochs)
	i := 0
	for i < len(src) && src[i] <= c.Get(TID(i)) {
		i++
	}
	if i == len(src) {
		return
	}
	if c.shared {
		c.unshare()
	}
	c.grow(len(src))
	for ; i < len(src); i++ {
		if e := src[i]; e > c.epochs[i] {
			c.epochs[i] = e
		}
	}
	c.gen++
}

// Assign overwrites c with a copy of other. Only the prefix up to other's
// highest nonzero epoch is copied: a sparse clock at a high-water width
// assigns at the cost of its live width, not its peak.
func (c *Clock) Assign(other *Clock) {
	if c.shared {
		// Dropping the storage (rather than truncating it) leaves the
		// snapshots sole owners.
		c.epochs = nil
		c.shared = false
	}
	if other == nil {
		c.epochs = c.epochs[:0]
	} else {
		c.epochs = append(c.epochs[:0], trimmed(other.epochs)...)
	}
	c.gen++
}

// Reset clears the clock to all-zero epochs, retaining storage for reuse.
func (c *Clock) Reset() {
	if c.shared {
		c.epochs = nil
		c.shared = false
	}
	c.epochs = c.epochs[:0]
	c.gen++
}

// Copy returns an independent copy of c.
func (c *Clock) Copy() *Clock {
	dup := &Clock{}
	dup.Assign(c)
	return dup
}

// LessEq reports whether c happens-before-or-equals other, i.e. every epoch
// in c is <= the corresponding epoch in other. A nil clock is the empty
// clock: nil.LessEq(x) is always true, and x.LessEq(nil) is true exactly
// when x carries no nonzero epoch (trailing zeros do not count).
func (c *Clock) LessEq(other *Clock) bool {
	if c == nil {
		return true
	}
	for i, e := range c.epochs {
		if e == 0 {
			continue
		}
		if other == nil || i >= len(other.epochs) || e > other.epochs[i] {
			return false
		}
	}
	return true
}

// HappensBefore reports whether the event stamped (tid, e) happens-before a
// thread whose current clock is other: i.e. other has observed epoch e of
// tid. This is the FastTrack-style O(1) check used on the hot path.
func HappensBefore(tid TID, e Epoch, other *Clock) bool {
	return e <= other.Get(tid)
}

// Concurrent reports whether the two clocks are incomparable. Nil clocks
// are empty and therefore ordered below everything, never concurrent.
func Concurrent(a, b *Clock) bool {
	return !a.LessEq(b) && !b.LessEq(a)
}

// Len returns the number of thread slots the clock covers.
func (c *Clock) Len() int { return len(c.epochs) }

// String renders the clock as "[e0 e1 ...]" for diagnostics.
func (c *Clock) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, e := range c.epochs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", e)
	}
	sb.WriteByte(']')
	return sb.String()
}

// Snapshot is an immutable view of a clock at a point in time, shared by
// value: release stores, fences and mutex release edges all publish the
// same snapshot for as long as the owning thread's clock is unchanged.
// The zero Snapshot means "no clock" (IsZero reports it).
//
// A snapshot taken with Clock.Snapshot(tid) stays valid however the owner
// clock evolves: entry tid is stamped at capture (the owner may keep
// ticking it in place), and every other entry is protected by the clock's
// copy-on-write.
type Snapshot struct {
	epochs []Epoch
	// tid's entry reads as epoch regardless of the (possibly since
	// advanced) aliased storage; -1 for materialised snapshots with no
	// override (merges).
	tid   TID
	epoch Epoch
}

// Snapshot captures the clock's current value as an immutable snapshot.
// tid must be the clock's owning thread — the only index the caller will
// keep ticking in place. All other entries trigger copy-on-write.
func (c *Clock) Snapshot(tid TID) Snapshot {
	if c.shared && c.snapTID != tid {
		// Outstanding snapshots stamped a different owner; give them the
		// storage and restart sharing under the new owner.
		c.unshare()
	}
	c.shared = true
	c.snapTID = tid
	return Snapshot{epochs: c.epochs, tid: tid, epoch: c.Get(tid)}
}

// IsZero reports whether s is the zero "no clock" snapshot. A snapshot of
// a completely empty clock is also zero; thread clocks always carry the
// owner's epoch >= 1, so their snapshots never are.
func (s Snapshot) IsZero() bool { return s.epochs == nil && s.epoch == 0 && s.tid == 0 }

// Get returns the epoch recorded for tid at capture time.
func (s Snapshot) Get(tid TID) Epoch {
	if s.tid >= 0 && tid == s.tid {
		return s.epoch
	}
	if int(tid) >= len(s.epochs) {
		return 0
	}
	return s.epochs[tid]
}

// Len returns the number of thread slots the snapshot covers.
func (s Snapshot) Len() int {
	n := len(s.epochs)
	if s.tid >= 0 && int(s.tid)+1 > n {
		n = int(s.tid) + 1
	}
	return n
}

// trimmedLen returns the snapshot's effective width excluding trailing
// zeros, honouring the owner-epoch override: a snapshot of a sparse clock
// contributes only up to its highest nonzero entry.
func (s Snapshot) trimmedLen() int {
	n := s.Len()
	for n > 0 && s.Get(TID(n-1)) == 0 {
		n--
	}
	return n
}

// JoinSnapshot merges a snapshot into c, taking the pointwise maximum: the
// acquire side of snapshot-published synchronisation. Trailing zeros in the
// snapshot never force c to grow, and a clock that already covers the
// snapshot (a thread re-acquiring a mutex it released last) is left
// untouched: it is neither copied nor bumped to a new generation.
func (c *Clock) JoinSnapshot(s Snapshot) {
	if s.IsZero() {
		return
	}
	n := s.trimmedLen()
	i := 0
	for i < n && s.Get(TID(i)) <= c.Get(TID(i)) {
		i++
	}
	if i == n {
		return
	}
	if c.shared {
		c.unshare()
	}
	c.grow(n)
	for ; i < n; i++ {
		if e := s.Get(TID(i)); e > c.epochs[i] {
			c.epochs[i] = e
		}
	}
	c.gen++
}

// MergeSnapshots returns the pointwise maximum of two snapshots as a new
// materialised snapshot (owned storage, no override). Used when an RMW
// continues a release sequence: its release clock is the join of its own
// release with the replaced store's. The result is sized to the wider
// snapshot's trimmed width, so merging two sparse snapshots at a high-water
// peak allocates O(live width), not O(peak).
func MergeSnapshots(a, b Snapshot) Snapshot {
	n := a.trimmedLen()
	if bl := b.trimmedLen(); bl > n {
		n = bl
	}
	es := make([]Epoch, n)
	for i := range es {
		ea, eb := a.Get(TID(i)), b.Get(TID(i))
		if ea > eb {
			es[i] = ea
		} else {
			es[i] = eb
		}
	}
	return Snapshot{epochs: es, tid: -1}
}

// String renders the snapshot's effective value for diagnostics.
func (s Snapshot) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < s.Len(); i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", s.Get(TID(i)))
	}
	sb.WriteByte(']')
	return sb.String()
}
