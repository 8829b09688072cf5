package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"lamb"
)

func TestParseInstance(t *testing.T) {
	inst, err := parseInstance("100, 200,300", 3)
	if err != nil {
		t.Fatal(err)
	}
	if inst[0] != 100 || inst[1] != 200 || inst[2] != 300 {
		t.Fatalf("instance %v", inst)
	}
	if _, err := parseInstance("1,2", 3); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := parseInstance("1,x,3", 3); err == nil {
		t.Fatal("non-numeric accepted")
	}
	if _, err := parseInstance("1,0,3", 3); err == nil {
		t.Fatal("non-positive accepted")
	}
}

func TestCommonFlagsValidation(t *testing.T) {
	c := &commonFlags{exprName: "nope", backend: "sim"}
	if _, err := c.expression(); err == nil {
		t.Fatal("bad expression accepted")
	}
	c = &commonFlags{exprName: "chain", backend: "nope"}
	if _, err := c.timer(); err == nil {
		t.Fatal("bad backend accepted")
	}
	c = &commonFlags{exprName: "aatb", backend: "sim", reps: 3}
	e, err := c.expression()
	if err != nil || e.Arity() != 3 {
		t.Fatalf("aatb expression: %v, %v", e, err)
	}
	timer, err := c.timer()
	if err != nil || timer.Reps != 3 {
		t.Fatalf("timer: %+v, %v", timer, err)
	}
}

func TestScaleTargets(t *testing.T) {
	c := &commonFlags{scale: "paper", backend: "sim"}
	target, maxS := c.exp1Target("chain")
	if target != 100 || maxS < 100_000 {
		t.Fatalf("paper chain target %d/%d", target, maxS)
	}
	target, _ = c.exp1Target("aatb")
	if target != 1000 {
		t.Fatalf("paper aatb target %d", target)
	}
	c.scale = "quick"
	if target, _ = c.exp1Target("chain"); target != 10 {
		t.Fatalf("quick chain target %d", target)
	}
	c.backend = "blas"
	if target, _ = c.exp1Target("chain"); target != 3 {
		t.Fatalf("blas chain target %d", target)
	}
}

func TestBoxSelection(t *testing.T) {
	c := &commonFlags{backend: "sim"}
	if b := c.box(3); b.Hi[0] != 1200 {
		t.Fatalf("sim box %+v", b)
	}
	c.backend = "blas"
	if b := c.box(3); b.Hi[0] > 256 {
		t.Fatalf("blas box too large: %+v", b)
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	c := &commonFlags{outDir: dir}
	if err := c.writeCSV("x.csv", [][]string{{"a", "b"}, {"1", "2"}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "x.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a,b\n1,2\n" {
		t.Fatalf("csv %q", data)
	}
	// No -out: a silent no-op.
	c2 := &commonFlags{}
	if err := c2.writeCSV("y.csv", nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmdEnumerateRuns(t *testing.T) {
	// The enumerate subcommand is pure computation: run it end-to-end.
	if err := cmdEnumerate([]string{"-expr", "aatb"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEnumerate([]string{"-terms", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEnumerate([]string{"-expr", "chain", "-inst", "50,60,70,80,90"}); err != nil {
		t.Fatal(err)
	}
	// A chain that cannot be built, or whose set passes the enumerator's
	// budget, is an error, not a panic.
	for terms, want := range map[string]string{
		"-3": "expr: chain needs at least 2 terms, has -3",
		"1":  "expr: chain needs at least 2 terms, has 1",
		"11": "ir: algorithm set too large: chain-11 has at least 362880 algorithms, over the limit of 50000",
		"22": "ir: algorithm set too large: chain-22 has at least 362880 algorithms, over the limit of 50000",
		"23": "ir: algorithm set too large: chain-23 has at least 362880 algorithms, over the limit of 50000",
		"24": "expr: chain of 24 terms exceeds the naming limit of 23",
		"26": "expr: chain of 26 terms exceeds the naming limit of 23",
		"27": "expr: chain of 27 terms exceeds the naming limit of 23",
	} {
		if err := cmdEnumerate([]string{"-terms", terms}); err == nil || err.Error() != want {
			t.Errorf("-terms %s: error %v, want %q", terms, err, want)
		}
	}
}

// TestEnumerationBudgetFailsFast checks that the three ways to ask for
// a set over the enumerator's budget — a 15-term chain, a 12-operand
// product through the IR builder, and `lamb enumerate -terms 11` —
// return ErrTooManyAlgorithms having allocated under 10 MB, within
// 100 ms (reported, not asserted, under the race detector).
func TestEnumerationBudgetFailsFast(t *testing.T) {
	product := func() error {
		factors := make([]lamb.IRNode, 12)
		for i := range factors {
			factors[i] = lamb.Operand(string(rune('A'+i)), i, i+1)
		}
		_, err := lamb.DefineExpression("product-12", 13, lamb.Mul(factors...))
		return err
	}
	for name, call := range map[string]func() error{
		"NewChain(15)":  func() error { _, err := lamb.NewChain(15); return err },
		"product-12":    product,
		"enumerate -11": func() error { return cmdEnumerate([]string{"-terms", "11"}) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := call()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, lamb.ErrTooManyAlgorithms) {
			t.Errorf("%s: error %v, want ErrTooManyAlgorithms", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 10<<20 {
			t.Errorf("%s: allocated %d bytes, want under 10 MB", name, alloc)
		}
		switch {
		case raceEnabled:
			t.Logf("%s: refused in %v", name, elapsed)
		case elapsed >= 100*time.Millisecond:
			t.Errorf("%s: refused in %v, want under 100ms", name, elapsed)
		}
	}
}

func TestCmdExp1QuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := cmdExp1([]string{"-expr", "aatb", "-scale", "quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestFlagSetHelper(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	v := fs.Int("max", 1, "")
	_ = v
	if err := fs.Parse([]string{"-max", "5"}); err != nil {
		t.Fatal(err)
	}
	if !flagSet(fs, "max") {
		t.Fatal("flagSet should report set flag")
	}
	if flagSet(fs, "other") {
		t.Fatal("flagSet reported unset flag")
	}
}
