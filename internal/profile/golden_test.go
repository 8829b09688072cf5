package profile

import (
	"testing"

	"lamb/internal/kernels"
)

// TestMeasureSetMatchesCIProfile pins every rate MeasureSet produces on
// the default simulated machine at reps 3 and grid 3 to the committed
// testdata/profile-ci.json (recorded by `lamb profile -backend sim -reps
// 3 -grid 3`). It covers each kind's canonical call, FLOP and byte
// counts and machine-model row; the file is never re-recorded to make a
// refactor pass.
func TestMeasureSetMatchesCIProfile(t *testing.T) {
	want, _, err := ReadFile("../../testdata/profile-ci.json")
	if err != nil {
		t.Fatal(err)
	}
	got := MeasureSet(simTimer(), 3)
	for kind := kernels.Kind(0); int(kind) < kernels.NumKinds; kind++ {
		g, w := got.Profile(kind), want.Profile(kind)
		for d, pair := range [][2][]int{{g.GridM, w.GridM}, {g.GridN, w.GridN}, {g.GridK, w.GridK}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("%v grid %d: %v, want %v", kind, d, pair[0], pair[1])
			}
			for i := range pair[0] {
				if pair[0][i] != pair[1][i] {
					t.Fatalf("%v grid %d: %v, want %v", kind, d, pair[0], pair[1])
				}
			}
		}
		for i := range w.rate {
			for j := range w.rate[i] {
				for l, r := range w.rate[i][j] {
					if g.rate[i][j][l] != r {
						t.Errorf("%v rate[%d][%d][%d] = %v, want %v", kind, i, j, l, g.rate[i][j][l], r)
					}
				}
			}
		}
	}
}
