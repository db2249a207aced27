package pgeom

import (
	"math/rand"
	"testing"

	"dyncg/internal/geom"
	"dyncg/internal/poly"
	"dyncg/internal/ratfun"
)

// checkDirCmp requires dirCmp to decide every ordered pair of dirs the
// way the comparator it replaced did: 0 exactly when DirEq, and
// otherwise "less" exactly when DirLess.
func checkDirCmp[T ratfun.Real[T]](t *testing.T, field string, dirs []geom.Point[T]) {
	t.Helper()
	for i, a := range dirs {
		for j, b := range dirs {
			c := dirCmp(a, b, dirHalf(a), dirHalf(b))
			eq := DirEq(a, b)
			if (c == 0) != eq || (!eq && (c < 0) != DirLess(a, b)) {
				t.Fatalf("%s: dirCmp(dirs[%d], dirs[%d]) = %d, DirEq = %v, DirLess = %v (a = %v, b = %v)",
					field, i, j, c, eq, DirLess(a, b), a, b)
			}
		}
	}
}

// degenerateDirs are the axis-aligned directions, their parallel and
// antiparallel multiples, and the zero vector.
func degenerateDirs() [][2]float64 {
	var out [][2]float64
	for _, d := range [][2]float64{{1, 0}, {0, 1}, {-1, 0}, {0, -1}, {1, 1}, {-2, 3}} {
		for _, s := range []float64{1, 2.5, -1, -0.5} {
			out = append(out, [2]float64{s * d[0], s * d[1]})
		}
	}
	return append(out, [2]float64{0, 0})
}

func TestDirCmpMatchesDirEqDirLess(t *testing.T) {
	r := rand.New(rand.NewSource(29))

	f := func(x, y float64) geom.Point[ratfun.F64] {
		return geom.Point[ratfun.F64]{X: ratfun.F64(x), Y: ratfun.F64(y)}
	}
	var fd []geom.Point[ratfun.F64]
	for _, d := range degenerateDirs() {
		fd = append(fd, f(d[0], d[1]))
	}
	for i := 0; i < 40; i++ {
		fd = append(fd, f(r.NormFloat64(), r.NormFloat64()))
	}
	checkDirCmp(t, "F64", fd)

	rf := func(num, den []float64) ratfun.RatFun {
		return ratfun.RatFun{Num: poly.New(num...), Den: poly.New(den...)}
	}
	var rd []geom.Point[ratfun.RatFun]
	for _, d := range degenerateDirs() {
		rd = append(rd, geom.Point[ratfun.RatFun]{X: ratfun.FromFloat(d[0]), Y: ratfun.FromFloat(d[1])})
	}
	// A direction over quadratic denominators and its multiples by
	// (6.7, −6.7, (t+2)/(t+2)): the cross products of these pairs
	// leave rounding residue that snaps to zero, so they are parallel
	// or antiparallel only through cancelEps.
	x := rf([]float64{-2.2, 2.7, 5.3}, []float64{-2.3, 8.5, 1})
	y := rf([]float64{9.9, 4.5, 7.3}, []float64{-1.7, -6.2, 1})
	k := len(rd)
	for _, s := range []ratfun.RatFun{ratfun.FromFloat(1), ratfun.FromFloat(6.7), ratfun.FromFloat(-6.7), rf([]float64{2, 1}, []float64{2, 1})} {
		rd = append(rd, geom.Point[ratfun.RatFun]{X: x.Mul(s), Y: y.Mul(s)})
	}
	if !DirEq(rd[k], rd[k+1]) || !DirEq(rd[k], rd[k+3]) || dirCmp(rd[k], rd[k+2], 0, 0) == 0 ||
		geom.Cross(rd[k], rd[k+2]).Sign() != 0 {
		t.Fatal("scaled directions are not parallel/antiparallel at infinity")
	}
	for i := 0; i < 30; i++ {
		c := func() ratfun.RatFun {
			return rf([]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}, []float64{1 + r.Float64(), r.NormFloat64()})
		}
		rd = append(rd, geom.Point[ratfun.RatFun]{X: c(), Y: c()})
	}
	checkDirCmp(t, "RatFun", rd)
}
