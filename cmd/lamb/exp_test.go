package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lamb"
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

// TestEnumerateGolden pins the full stdout of `lamb enumerate` for every
// registered expression at its default instance, and for the general
// 5-term chain, whose output ends with the dynamic-programming line. The
// goldens were recorded from `lamb enumerate -expr <name>` and
// `lamb enumerate -terms 5`.
func TestEnumerateGolden(t *testing.T) {
	cases := map[string][]string{"terms2": {"-terms", "2"}, "terms5": {"-terms", "5"}}
	for _, name := range lamb.Expressions() {
		cases[name] = []string{"-expr", name}
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "enumerate-"+name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			out := stdoutCapture(t)
			err = cmdEnumerate(args)
			got := out()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("enumerate %s output differs from the golden:\n%s", name, got)
			}
		})
	}
}
