package tsan

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// Access is one side of a race: which thread, at which of its epochs,
// performing what kind of access.
type Access struct {
	TID   TID
	Epoch vclock.Epoch
	Kind  AccessKind
}

// Report describes one detected data race.
type Report struct {
	Location string
	First    Access
	Second   Access
}

func (r Report) String() string {
	return fmt.Sprintf("data race on %s: %v by thread %d (epoch %v) vs %v by thread %d (epoch %v)",
		r.Location, r.First.Kind, r.First.TID, r.First.Epoch,
		r.Second.Kind, r.Second.TID, r.Second.Epoch)
}

type reportKey struct {
	loc        string
	tidA, tidB TID
	kindA      AccessKind
	kindB      AccessKind
}

func (d *Detector) report(loc string, a, b Access) {
	if d.disabled {
		return
	}
	key := reportKey{loc, a.TID, b.TID, a.Kind, b.Kind}
	if d.seen[key] {
		return
	}
	if d.seen == nil {
		d.seen = make(map[reportKey]bool)
	}
	d.seen[key] = true
	if len(d.reports) < d.opts.MaxReports {
		d.reports = append(d.reports, Report{Location: loc, First: a, Second: b})
		if d.tr.Enabled() {
			d.tr.Emit(obs.Event{TID: int32(b.TID), Kind: obs.KindRace,
				Obj: uint64(a.Epoch), Arg: int64(a.TID)})
		}
	}
}

// Reports returns the distinct races detected so far.
func (d *Detector) Reports() []Report { return d.reports }

// RaceCount returns the number of distinct races detected.
func (d *Detector) RaceCount() int { return len(d.reports) }

// SetReporting enables or disables race recording (the paper's "no
// reports" configurations still run detection but suppress report
// generation; we model the report-generation cost by skipping it).
func (d *Detector) SetReporting(on bool) { d.disabled = !on }
