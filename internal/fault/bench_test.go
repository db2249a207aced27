package fault

import (
	"math/rand"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
)

// BenchmarkInjectorOverhead measures the cost of the injector hook on
// the hot path: a full bitonic sort on 4096 PEs with no injector (the
// nil-check fast path every fault-free caller takes) vs a zero-fault
// plan attached vs a plan actually injecting transient faults. The
// disabled number is what EXPERIMENTS.md records against the pre-hook
// baseline (budget: ≤ 2%).
func BenchmarkInjectorOverhead(b *testing.B) {
	const n = 4096
	r := rand.New(rand.NewSource(6))
	vals := make([]int, n)
	for i := range vals {
		vals[i] = r.Intn(1 << 20)
	}
	topo := hypercube.MustNew(n)
	run := func(b *testing.B, spec *Spec) {
		for i := 0; i < b.N; i++ {
			m := machine.New(topo)
			if spec != nil {
				plan := NewPlan(*spec, 11)
				plan.Bind(n)
				m.SetInjector(plan)
			}
			regs := colstore.Scatter(n, vals)
			machine.SortCols(m, regs, func(a, b int) bool { return a < b })
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("zero-plan", func(b *testing.B) { run(b, &Spec{}) })
	b.Run("transient-1pct", func(b *testing.B) { run(b, &Spec{Transient: 0.01}) })
}
