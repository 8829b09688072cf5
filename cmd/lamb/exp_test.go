package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// TestFigure1Golden pins the full stdout of `lamb figure1 -max 300
// -step 50` on the sim backend, recorded from that command.
func TestFigure1Golden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "figure1-sim.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out := stdoutCapture(t)
	err = cmdFigure1([]string{"-max", "300", "-step", "50"})
	got := out()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("figure1 output differs from the golden:\n%s", got)
	}
}

// TestFigure1Kinds checks figure1's -kinds list: TRSM and POTRF draw
// their own columns, and a kind without FLOPs or an unknown name is an
// error naming the kinds it accepts.
func TestFigure1Kinds(t *testing.T) {
	out := stdoutCapture(t)
	err := cmdFigure1([]string{"-max", "100", "-step", "50", "-kinds", "trsm,potrf"})
	got := string(out())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"size  trsm   potrf\n", "trsm efficiency", "potrf efficiency"} {
		if !strings.Contains(got, want) {
			t.Errorf("figure1 -kinds trsm,potrf output lacks %q:\n%s", want, got)
		}
	}
	for _, bad := range []string{"tri2full", "gemm,lu", ""} {
		err := cmdFigure1([]string{"-max", "50", "-kinds", bad})
		if err == nil || !strings.Contains(err.Error(), "gemm, syrk, symm, potrf, trsm, addsym") {
			t.Errorf("-kinds %q: error %v", bad, err)
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
