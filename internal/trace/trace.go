// Package trace is the observability subsystem of the simulator: a
// zero-dependency hierarchical span tracer and metrics registry for the
// simulated SIMD machines of internal/machine.
//
// The quantity being traced is *simulated parallel time* (machine.Stats
// — the paper's Θ-bound currency), not wall-clock time: a span records
// the machine's counters at Begin and End, so its cost is an exact
// Stats delta, and the span tree attributes every simulated step to the
// primitive (sort, merge, prefix, …) and algorithm phase (Lemma 3.1
// merge level, Theorem 3.2 halving, a §4/§5 theorem) that charged it.
//
// Usage:
//
//	m, _ := topo.NewMachine(topo.Hypercube, n)
//	tr := trace.Attach(m, "closest")         // tr observes every charge
//	core.ClosestPointSequence(m, sys, 0)
//	root := tr.Finish()                      // detaches, closes open spans
//	trace.WriteCostTree(os.Stdout, root, 0)  // per-phase % breakdown
//	trace.WriteChrome(f, root, m)            // chrome://tracing timeline
//	trace.Collect(root).Write(os.Stdout)     // per-primitive aggregates
//
// Tracing is opt-in and near-free when disabled: the machine's hooks are
// nil checks (benchmarked by BenchmarkObserverOverhead; the measured
// disabled overhead is recorded in EXPERIMENTS.md).
package trace

import (
	"strconv"

	"dyncg/internal/machine"
)

// Attr is one span attribute (a key/value string pair).
type Attr struct {
	Key, Val string
}

// Span is one node of the attribution tree: a named scope whose cost is
// the difference between the machine's counters at End and at Begin.
type Span struct {
	Name     string
	Attrs    []Attr
	Begin    machine.Stats // counter snapshot when the span opened
	End      machine.Stats // counter snapshot when the span closed
	Children []*Span
	// Rounds holds the individual cost events charged directly inside
	// this span (not inside a child), when round recording is enabled.
	Rounds []machine.RoundInfo

	parent *Span
}

// Delta returns the span's total cost: everything charged between Begin
// and End, children included.
func (s *Span) Delta() machine.Stats { return s.End.Sub(s.Begin) }

// Self returns the span's own cost: Delta minus the children's deltas —
// the cost charged directly in this scope.
func (s *Span) Self() machine.Stats {
	d := s.Delta()
	for _, c := range s.Children {
		d = d.Sub(c.Delta())
	}
	return d
}

// Attr returns the value of the named attribute, or "".
func (s *Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Walk visits the span and all descendants in depth-first pre-order.
func (s *Span) Walk(f func(s *Span, depth int)) { s.walk(f, 0) }

func (s *Span) walk(f func(s *Span, depth int), depth int) {
	f(s, depth)
	for _, c := range s.Children {
		c.walk(f, depth+1)
	}
}

// Tracer implements machine.Observer: it maintains the span stack,
// snapshotting the machine's counters at every span boundary. A Tracer
// is single-goroutine, like the machine it observes.
type Tracer struct {
	m            *machine.M
	root         *Span
	cur          *Span
	recordRounds bool
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithRounds records every individual charged round into its enclosing
// span (Span.Rounds). Off by default: round lists are large (a full sort
// charges Θ(log² n) rounds) and the per-span Stats deltas already carry
// the aggregate cost.
func WithRounds() Option { return func(t *Tracer) { t.recordRounds = true } }

// Attach creates a Tracer, opens its root span, and installs it as m's
// observer. The machine's counters need not be zero, but for the root
// span's total to equal m.Stats().Time() exactly — the invariant the
// cost tree reports against — attach to a machine whose counters are
// fresh (see machine.M.Reset).
func Attach(m *machine.M, rootName string, opts ...Option) *Tracer {
	t := &Tracer{m: m}
	for _, o := range opts {
		o(t)
	}
	t.root = &Span{
		Name:  rootName,
		Begin: m.Stats(),
		Attrs: []Attr{
			{Key: "machine", Val: m.Topology().Name()},
			{Key: "pes", Val: strconv.Itoa(m.Size())},
		},
	}
	t.cur = t.root
	m.SetObserver(t)
	return t
}

// SpanBegin implements machine.Observer.
func (t *Tracer) SpanBegin(name string, kv []string) {
	s := &Span{Name: name, Begin: t.m.Stats(), parent: t.cur}
	if len(kv) >= 2 {
		s.Attrs = make([]Attr, 0, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			s.Attrs = append(s.Attrs, Attr{Key: kv[i], Val: kv[i+1]})
		}
	}
	t.cur.Children = append(t.cur.Children, s)
	t.cur = s
}

// SpanEnd implements machine.Observer.
func (t *Tracer) SpanEnd() {
	if t.cur == t.root {
		return // unmatched End; keep the root open until Finish
	}
	t.cur.End = t.m.Stats()
	t.cur = t.cur.parent
}

// Round implements machine.Observer.
func (t *Tracer) Round(ri machine.RoundInfo) {
	if t.recordRounds {
		t.cur.Rounds = append(t.cur.Rounds, ri)
	}
}

// Begin opens an application-level span directly on the tracer —
// equivalent to m.SpanBegin for callers that hold the Tracer.
func (t *Tracer) Begin(name string, attrs ...Attr) {
	kv := make([]string, 0, 2*len(attrs))
	for _, a := range attrs {
		kv = append(kv, a.Key, a.Val)
	}
	t.SpanBegin(name, kv)
}

// End closes the innermost span opened by Begin/SpanBegin.
func (t *Tracer) End() { t.SpanEnd() }

// Finish closes every open span (including the root), detaches the
// tracer from the machine, and returns the root of the span tree. The
// tracer can be re-Attached afterwards only via a new Attach call.
func (t *Tracer) Finish() *Span {
	end := t.m.Stats()
	for t.cur != t.root {
		t.cur.End = end
		t.cur = t.cur.parent
	}
	t.root.End = end
	if t.m.Observer() == machine.Observer(t) {
		t.m.SetObserver(nil)
	}
	return t.root
}

// Root returns the (possibly still-open) root span.
func (t *Tracer) Root() *Span { return t.root }
