package colstore

import (
	"reflect"
	"testing"
)

func TestScatterGather(t *testing.T) {
	f := Scatter(8, []int{4, 7, 9})
	if f.Len() != 8 {
		t.Fatalf("Len = %d, want 8", f.Len())
	}
	if got := f.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if got := f.Gather(); !reflect.DeepEqual(got, []int{4, 7, 9}) {
		t.Fatalf("Gather = %v", got)
	}
	if v, ok := f.Get(1); !ok || v != 7 {
		t.Fatalf("Get(1) = %v, %v", v, ok)
	}
	if _, ok := f.Get(5); ok {
		t.Fatal("Get(5) should be empty")
	}
}

func TestFirst(t *testing.T) {
	f := New[int](6)
	if _, ok := f.First(); ok {
		t.Fatal("First on an empty file reported a value")
	}
	f.Val[0] = 99 // stale value of an empty register
	f.Set(3, 5)
	f.Set(4, 8)
	if v, ok := f.First(); !ok || v != 5 {
		t.Fatalf("First = %d, %v; want 5, true", v, ok)
	}
}

func TestScatterOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for too many values")
		}
	}()
	Scatter(2, []int{1, 2, 3})
}

func TestSetClearReset(t *testing.T) {
	f := New[string](4)
	f.Set(2, "x")
	if v, ok := f.Get(2); !ok || v != "x" {
		t.Fatalf("Get(2) = %q, %v", v, ok)
	}
	f.Clear(2)
	if v, ok := f.Get(2); ok || v != "" {
		t.Fatalf("after Clear: Get(2) = %q, %v (stale value must be zeroed)", v, ok)
	}
	f.Set(0, "a")
	f.Set(3, "b")
	f.Reset()
	if f.Count() != 0 {
		t.Fatalf("after Reset: Count = %d", f.Count())
	}
}

func TestEqualMasksStaleValues(t *testing.T) {
	a := Scatter(4, []int{1, 2})
	b := Scatter(4, []int{1, 2})
	// Different stale values under an empty register must not matter.
	a.Val[3] = 99
	if !Equal(a, b) {
		t.Fatal("files differing only in stale values must compare equal")
	}
	b.Occ[3] = true
	if Equal(a, b) {
		t.Fatal("occupancy mismatch must compare unequal")
	}
	b.Occ[3] = false
	b.Val[1] = 5
	if Equal(a, b) {
		t.Fatal("occupied value mismatch must compare unequal")
	}
	if Equal(a, New[int](5)) {
		t.Fatal("length mismatch must compare unequal")
	}
}

func TestCopyFrom(t *testing.T) {
	src := Scatter(4, []int{7, 8})
	dst := New[int](4)
	dst.CopyFrom(src)
	if !Equal(src, dst) {
		t.Fatalf("CopyFrom: %v %v != %v %v", dst.Val, dst.Occ, src.Val, src.Occ)
	}
}

func TestActive(t *testing.T) {
	f := New[int](6)
	f.Set(1, 10)
	f.Set(4, 40)
	buf := make([]int32, 0, 8)
	act := Active(f.Occ, buf[:0])
	if !reflect.DeepEqual(act, []int32{1, 4}) {
		t.Fatalf("Active = %v", act)
	}
	// Reuse without reallocating.
	f.Set(0, 0)
	act2 := Active(f.Occ, act[:0])
	if !reflect.DeepEqual(act2, []int32{0, 1, 4}) {
		t.Fatalf("Active reuse = %v", act2)
	}
	if &act2[0] != &act[0] {
		t.Fatal("Active must reuse the passed buffer")
	}
}
