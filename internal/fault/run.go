package fault

import (
	"errors"
	"fmt"
	"strconv"

	"dyncg/internal/machine"
)

// ErrNotSurvivable reports that the fault schedule killed enough PEs
// that no healthy aligned submachine can still run the computation.
var ErrNotSurvivable = errors.New("fault: computation not survivable on the remaining healthy PEs")

// Result reports one Run: the final machine, the cumulative simulated
// cost across every attempt (aborted partial runs, charged recoveries,
// and the successful re-run), and the fault tally.
type Result struct {
	// M is the machine of the final attempt (the one whose body
	// completed, or the last one tried on error).
	M *machine.M
	// Stats is the cumulative simulated cost of the whole faulted
	// execution. With no faults injected it equals the fault-free cost;
	// with any fault injected it is strictly larger.
	Stats machine.Stats
	// Attempts is the number of times the body ran (1 = no remap).
	Attempts int
	// Transients and RetryRounds mirror the plan's tally: faulted rounds
	// and the extra retry rounds charged for them.
	Transients  int64
	RetryRounds int64
	// Failed lists permanently failed PEs as labels of the ORIGINAL
	// topology, in failure order.
	Failed []int
	// Topo is the topology of the final attempt: the original one, or
	// the largest healthy *Sub after failures.
	Topo machine.Topology
}

// String summarises the fault tally for CLI output.
func (r *Result) String() string {
	return fmt.Sprintf("attempts=%d transient-faults=%d retry-rounds=%d failed-pes=%v",
		r.Attempts, r.Transients, r.RetryRounds, r.Failed)
}

type runner struct {
	attach func(m *machine.M, attempt int)
}

// RunOption configures Run.
type RunOption func(*runner)

// WithAttach registers a hook called with every attempt's machine right
// after construction, before the plan is installed — the place to attach
// a trace.Tracer or other observer.
func WithAttach(f func(m *machine.M, attempt int)) RunOption {
	return func(r *runner) { r.attach = f }
}

// Run executes body under the fault plan with recovery. The body is the
// re-run unit — the "affected primitive" of the recovery protocol: it
// must be a pure function of the machine it is given (re-runnable from
// its captured inputs, the checkpoint), sizing its work by its own
// problem size rather than m.Size(), and returning an error if the
// machine is too small.
//
// Protocol: the body runs on a fresh machine over the full topology.
// Transient faults charge retry rounds in place (the machine handles
// them; outputs are unaffected). When the plan fires a permanent PE
// failure, the machine raises machine.PEFailure; Run recovers it, adds
// the PE to the dead set, finds the largest healthy aligned submachine
// (Gray-code subcube / Hilbert submesh, see Sub), charges the
// checkpoint-restore route that moves the surviving state into it, and
// re-runs the body there. A nil plan (or a zero-spec one) degenerates to
// a single clean attempt.
//
// The returned Result accumulates Stats across all attempts, so degraded
// executions are honestly more expensive than clean ones. If the
// surviving submachine is too small for the body, Run returns an error
// wrapping ErrNotSurvivable.
func Run(topo machine.Topology, plan *Plan, body func(*machine.M) error, opts ...RunOption) (*Result, error) {
	var r runner
	for _, o := range opts {
		o(&r)
	}
	res := &Result{}
	dead := map[int]bool{}
	off, size := 0, topo.Size()
	base := BlockBase(topo)
	var pendingRecovery *recovery
	for {
		var t machine.Topology = topo
		if off != 0 || size != topo.Size() {
			t = NewSub(topo, off, size)
		}
		m := machine.New(t)
		if r.attach != nil {
			r.attach(m, res.Attempts)
		}
		if plan != nil {
			plan.Bind(size)
			m.SetInjector(plan)
		}
		res.M, res.Topo = m, t
		res.Attempts++
		if pendingRecovery != nil {
			pendingRecovery.charge(m)
			pendingRecovery = nil
		}
		fail, err := runBody(m, body)
		res.Stats = res.Stats.Add(m.Stats())
		if plan != nil {
			res.Transients, res.RetryRounds = plan.Transients, plan.RetryRounds
		}
		if fail == nil {
			if err != nil && len(res.Failed) > 0 {
				// The body ran clean on the full machine but cannot fit
				// on the degraded one: the schedule is not survivable.
				return res, fmt.Errorf("%w: %v", ErrNotSurvivable, err)
			}
			return res, err
		}

		// Permanent failure: remap onto the largest healthy submachine.
		orig := off + fail.PE
		dead[orig] = true
		res.Failed = append(res.Failed, orig)
		noff, nsize := LargestHealthyBlock(topo.Size(), base, dead)
		if nsize == 0 {
			return res, fmt.Errorf("%w: all PEs failed", ErrNotSurvivable)
		}
		pendingRecovery = &recovery{
			topo: topo, pe: orig,
			fromOff: off, toOff: noff, n: nsize,
		}
		off, size = noff, nsize
	}
}

// runBody executes the body, converting a machine.PEFailure panic into a
// normal return; all other panics propagate.
func runBody(m *machine.M, body func(*machine.M) error) (fail *machine.PEFailure, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pf, ok := r.(machine.PEFailure); ok {
				fail = &pf
				return
			}
			panic(r)
		}
	}()
	return nil, body(m)
}

// recovery is a deferred checkpoint-restore charge: the state migration
// from the previous attempt's block into the new healthy block, charged
// on the new machine so the cost lands inside its trace timeline.
type recovery struct {
	topo           machine.Topology
	pe             int // the PE whose failure triggered this recovery
	fromOff, toOff int
	n              int // size of the new healthy block
}

// charge records the restore route on the new machine: slot i of the new
// block is reloaded from the checkpoint image at slot i of the old block
// (the Scatter input convention — PE i holds item i), one structured
// route whose cost is the worst point-to-point distance in the parent
// network.
func (rc *recovery) charge(m *machine.M) {
	if m.Observed() {
		m.SpanBegin("fault.recover",
			"pe", strconv.Itoa(rc.pe),
			"from", strconv.Itoa(rc.fromOff),
			"to", strconv.Itoa(rc.toOff),
			"size", strconv.Itoa(rc.n))
		defer m.SpanEnd()
	}
	dist, msgs := 0, 0
	for i := 0; i < rc.n; i++ {
		src, dst := rc.fromOff+i, rc.toOff+i
		if src == dst {
			continue
		}
		msgs++
		if d := rc.topo.Distance(src, dst); d > dist {
			dist = d
		}
	}
	m.ChargeRecovery(dist, msgs)
}
