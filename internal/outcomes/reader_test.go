package outcomes

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"lamb/internal/expr"
)

// referenceDecode is DecodeSnapshot as it was before the one-pass
// reader: encoding/json straight off the input, then Validate.
func referenceDecode(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("outcomes: decoding snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// checkReader asserts the reader's two contracts on one input: what the
// one-pass parser accepts, encoding/json accepts and decodes to the
// same value; and DecodeSnapshot answers exactly as referenceDecode
// does. It reports whether the one-pass parser accepted the input.
func checkReader(t *testing.T, data []byte) bool {
	t.Helper()
	var fast Snapshot
	canonical := parseCanonical(data, &fast)
	if canonical {
		var want Snapshot
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
			t.Fatalf("one-pass reader accepted what encoding/json rejects (%v): %q", err, data)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("one-pass reader decoded\n%#v\nencoding/json decoded\n%#v\nfrom %q", fast, want, data)
		}
	}
	got, err := DecodeSnapshot(bytes.NewReader(data))
	want, wantErr := referenceDecode(data)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeSnapshot error %v, encoding/json path %v, on %q", err, wantErr, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeSnapshot gave\n%#v\nencoding/json path gave\n%#v\nfrom %q", got, want, data)
	}
	return canonical
}

// FuzzDecodeSnapshot checks that decoding never panics, that the
// one-pass reader accepts nothing encoding/json would decode
// differently, and that DecodeSnapshot's answer — value and error —
// is the encoding/json path's. The seed corpus under
// testdata/fuzz/FuzzDecodeSnapshot covers the canonical form and each
// way out of it.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReader(t, data)
	})
}

// TestSnapshotReaderPaths pins which path each seed takes: the
// corpus files named canonical-* must parse in one pass, the fallback-*
// ones must not, and every one decodes as encoding/json decodes it.
func TestSnapshotReaderPaths(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no seed corpus")
	}
	for _, path := range files {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			data := readSeed(t, path)
			canonical := checkReader(t, data)
			switch {
			case strings.HasPrefix(name, "canonical-") && !canonical:
				t.Fatalf("canonical seed fell back to encoding/json: %q", data)
			case strings.HasPrefix(name, "fallback-") && canonical:
				t.Fatalf("non-canonical seed parsed in one pass: %q", data)
			}
		})
	}
}

// readSeed reads one corpus file in the `go test fuzz v1` format with a
// single []byte value.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, value, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	if !ok || header != "go test fuzz v1" || !strings.HasPrefix(value, "[]byte(") || !strings.HasSuffix(value, ")") {
		t.Fatalf("%s: not a one-value corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(value, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestEncodeTakesOnePassPath: whatever a store holds — local and merged
// streams, decayed weights, streams without spread — its encoded
// snapshot parses in one pass, to exactly the snapshot encoded, so the
// fast boot cannot silently fall back to encoding/json.
func TestEncodeTakesOnePassPath(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		st := replaySequence(seed)
		// A stream fed once has zero m2, as every stream of a version-1
		// snapshot restores.
		if err := st.Add("AATB", expr.Instance{1, 2, 3}, 1, 0.5); err != nil {
			t.Fatal(err)
		}
		for _, snap := range []*Snapshot{st.Snapshot("profile.json"), st.SnapshotLocal(""), NewStore(4, time.Hour).Snapshot("")} {
			var buf bytes.Buffer
			if err := snap.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			var got Snapshot
			if !parseCanonical(buf.Bytes(), &got) {
				t.Fatalf("seed %d: Encode output fell back to encoding/json", seed)
			}
			if !reflect.DeepEqual(&got, snap) {
				t.Fatalf("seed %d: one-pass decode differs from the encoded snapshot", seed)
			}
			checkReader(t, buf.Bytes())
		}
	}
}
