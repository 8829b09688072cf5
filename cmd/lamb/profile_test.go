package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"lamb"
	"lamb/internal/engine"
	"lamb/internal/profile"
)

func TestCmdProfileWritesLoadableStore(t *testing.T) {
	out := filepath.Join(t.TempDir(), "p.json")
	old := stdoutCapture(t)
	err := cmdProfile([]string{"-backend", "sim", "-reps", "2", "-grid", "2", "-o", out})
	old()
	if err != nil {
		t.Fatal(err)
	}
	set, meta, err := profile.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Backend == "" || meta.GridPoints != 2 || meta.Reps != 2 || meta.CreatedAt == "" {
		t.Fatalf("meta %+v", meta)
	}
	if meta.Source != out {
		t.Fatalf("source %q", meta.Source)
	}
	for kind := lamb.KernelKind(0); int(kind) < lamb.NumKernelKinds; kind++ {
		if set.Profile(kind) == nil {
			t.Fatalf("missing %v profile", kind)
		}
	}
}

func TestCmdProfileRejectsDegenerateGrid(t *testing.T) {
	for _, grid := range []string{"1", "0", "-3"} {
		if err := cmdProfile([]string{"-backend", "sim", "-grid", grid, "-o", filepath.Join(t.TempDir(), "p.json")}); err == nil {
			t.Errorf("-grid %s accepted", grid)
		}
	}
}

// TestCmdRejectsRepsBelowOne pins the shared -reps check: a command
// that times refuses a repetition count below 1 before it measures,
// serves or stamps provenance, instead of running the default count.
func TestCmdRejectsRepsBelowOne(t *testing.T) {
	cmds := map[string]func(reps string) error{
		"profile": func(reps string) error {
			return cmdProfile([]string{"-backend", "sim", "-reps", reps, "-grid", "2", "-o", filepath.Join(t.TempDir(), "p.json")})
		},
		"serve": func(reps string) error {
			return cmdServe([]string{"-reps", reps, "-addr", "127.0.0.1:0"})
		},
		"select": func(reps string) error {
			return cmdSelect([]string{"-expr", "aatb", "-instance", "8,8,8", "-strategy", "oracle", "-reps", reps})
		},
	}
	for name, run := range cmds {
		for _, reps := range []string{"0", "-3"} {
			want := fmt.Sprintf("-reps must be at least 1 (got %s)", reps)
			if err := run(reps); err == nil || err.Error() != want {
				t.Errorf("%s -reps %s: err %v, want %q", name, reps, err, want)
			}
		}
	}
}

func TestCmdSelectWithProfileStore(t *testing.T) {
	// select -profile answers min-predicted from the persisted store
	// (no measurement) and stamps the record with its provenance.
	out := filepath.Join(t.TempDir(), "p.json")
	old := stdoutCapture(t)
	if err := cmdProfile([]string{"-backend", "sim", "-reps", "2", "-grid", "2", "-o", out}); err != nil {
		old()
		t.Fatal(err)
	}
	old()
	old = stdoutCapture(t)
	err := cmdSelect([]string{"-expr", "aatb", "-instance", "80,514,768",
		"-strategy", "min-predicted", "-profile", out, "-json"})
	body := old()
	if err != nil {
		t.Fatal(err)
	}
	var rec engine.Record
	if jerr := json.Unmarshal(body, &rec); jerr != nil {
		t.Fatalf("%v in %q", jerr, body)
	}
	if rec.Strategy != "min-predicted" || rec.Profile != out {
		t.Fatalf("record strategy %q profile %q, want min-predicted %q", rec.Strategy, rec.Profile, out)
	}
}

func TestCmdSelectProfileStoreMissing(t *testing.T) {
	err := cmdSelect([]string{"-expr", "aatb", "-instance", "80,514,768",
		"-strategy", "min-predicted", "-profile", filepath.Join(t.TempDir(), "nope.json"), "-json"})
	if err == nil {
		t.Fatal("missing profile store accepted")
	}
}
