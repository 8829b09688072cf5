package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestExp3QuickGolden pins the full stdout of `lamb exp3 -scale quick`
// on the simulated backend, for both paper expressions and the
// least-squares expression, at one worker and at four: all three
// experiments must be bit-identical across worker counts and across
// refactors of the drivers and the kernel table. lstsq runs POTRF, TRSM
// and AddSym through the simulated cache model. The goldens were
// recorded from `lamb exp3 -scale quick -expr <name>`.
func TestExp3QuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"aatb", "chain", "lstsq"} {
		want, err := os.ReadFile(filepath.Join("testdata", "exp3-"+name+"-quick.golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				out := stdoutCapture(t)
				err := cmdExp3([]string{"-expr", name, "-scale", "quick", "-workers", fmt.Sprint(workers)})
				got := out()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("exp3 %s output differs from the golden:\n%s", name, got)
				}
			})
		}
	}
}
