package keys

import (
	"reflect"
	"testing"
)

func TestSorted(t *testing.T) {
	if got := Sorted(map[int]bool{5: true, -1: false, 3: true, 0: true}); !reflect.DeepEqual(got, []int{-1, 0, 3, 5}) {
		t.Errorf("Sorted(ints) = %v", got)
	}
	if got := Sorted(map[string]int{"b": 1, "a": 2}); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Sorted(strings) = %v", got)
	}
	if got := Sorted(map[int]int(nil)); len(got) != 0 {
		t.Errorf("Sorted(nil) = %v", got)
	}
}
