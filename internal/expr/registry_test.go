package expr

import "testing"

// TestLookupZeroAllocs pins the registry's lookup as allocation-free:
// every query resolves its expression name through Lookup, so it must
// hand out a stored interface value rather than convert a Generic anew.
func TestLookupZeroAllocs(t *testing.T) {
	for _, name := range Names() {
		if _, err := Lookup(name); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Lookup(name); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Lookup(%q) makes %v allocations, want 0", name, allocs)
		}
	}
}
