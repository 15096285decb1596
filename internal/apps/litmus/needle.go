package litmus

import "repro/internal/core"

// Extras lists synthetic workloads that live outside the Table 1 suite:
// they exist to exercise the schedule-fuzzing loop (internal/explore), not
// the paper comparison, so the Table 1 benchmarks and `litmus -all` skip
// them. ByName resolves them like any other program.
var Extras = []Program{
	{Name: "needle", Body: needle},
}

// Needle geometry, shared with the fuzzing tests. The shallow race fires
// when the probe's first sample of the pacer's step counter lands in
// [needleW1Lo, needleW1Hi); the deep race additionally needs the second
// sample in [needleW2Lo, needleW2Hi). Exported through constants so tests
// can reason about the windows without duplicating numbers.
const (
	NeedleSteps = 160
	needleSig   = 10
	needlePre   = 24
	needlePad   = 24
	needleMid   = 12
	needleW1Lo  = 38
	needleW1Hi  = 46
	needleW2Lo  = 50
	needleW2Hi  = 62
)

// needle: a two-stage scheduling needle built for the mutation trial
// source. A pacer thread publishes two cells without synchronisation and
// then advances a relaxed step counter; the probe thread takes two point
// samples of that counter. The shallow race (needle.trip) fires when the
// first sample lands in a window well off the uniform-scheduling diagonal
// — uncommon but findable by seed rotation.
//
// Between its two samples the probe raises a signal against itself whose
// handler burns needlePad visible operations, so in every fresh execution
// the second sample trails the first by roughly pre-sample-gap + handler
// ticks of pacer progress, far past [needleW2Lo, needleW2Hi): the deep
// race (needle.deep) needs the pacer starved through that stretch, which
// uniform scheduling almost never does on top of the first alignment.
//
// The recorded demo of a shallow-race trial, however, carries the
// handler's delivery as a SIGNAL-stream event — and replay suppresses the
// live Raise, driving delivery from the stream instead. The drop-signal
// mutation therefore deletes the handler's execution wholesale: the
// replayed probe reaches its second sample needlePad+1 operations sooner
// while the seed-determined schedule prefix stays fixed, landing the
// second sample in the deep window with high probability. That
// conditional-vs-joint probability gap is what the mutation trial source
// exploits and what the mutation-beats-rotation test measures.
func needle(rt *core.Runtime) func(*core.Thread) {
	return func(main *core.Thread) {
		step := main.NewAtomic64("needle.step", 0)
		trip := core.NewVar(rt, "needle.trip", 0)
		deep := core.NewVar(rt, "needle.deep", 0)

		pacer := main.Spawn("pacer", func(t *core.Thread) {
			trip.Write(t, 1)
			deep.Write(t, 2)
			for i := 0; i < NeedleSteps; i++ {
				step.Add(t, 1, core.Relaxed)
			}
		})
		probe := main.Spawn("probe", func(t *core.Thread) {
			t.Signal(needleSig, func(h *core.Thread, _ int32) {
				for i := 0; i < needlePad; i++ {
					h.Yield()
				}
			})
			for i := 0; i < needlePre; i++ {
				t.Yield()
			}
			s1 := step.Load(t, core.Relaxed)
			armed := s1 >= needleW1Lo && s1 < needleW1Hi
			if armed {
				_ = trip.Read(t) // shallow race: unsynchronised with the pacer's write
			}
			t.Raise(needleSig)
			for i := 0; i < needleMid; i++ {
				t.Yield()
			}
			s2 := step.Load(t, core.Relaxed)
			if armed && s2 >= needleW2Lo && s2 < needleW2Hi {
				_ = deep.Read(t) // deep race: needs both window alignments
			}
		})
		main.Join(pacer)
		main.Join(probe)
	}
}
