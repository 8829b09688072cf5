package outcomes

import (
	"math"
	"testing"
	"time"

	"lamb/internal/expr"
)

// frozenStore returns a store whose clock is a settable variable, so
// decay arithmetic is deterministic.
func frozenStore(maxPoints int, halfLife time.Duration) (*Store, *float64) {
	st := NewStore(maxPoints, halfLife)
	now := new(float64)
	*now = 1000
	st.SetClock(func() float64 { return *now })
	return st, now
}

func TestStoreAddAndNear(t *testing.T) {
	st, _ := frozenStore(16, 0)
	inst := expr.Instance{80, 514, 768}
	st.Add("AATB", inst, 2, 0.4)
	st.Add("AATB", inst, 2, 0.6)
	st.Add("AATB", inst, 3, 1.0)

	obs := st.Near("AATB", inst, 0.01)
	if len(obs) != 2 {
		t.Fatalf("observations %v", obs)
	}
	for _, o := range obs {
		switch o.Algorithm {
		case 2:
			if o.Count != 2 || o.Weight != 2 || o.Seconds != 0.5 {
				t.Fatalf("alg 2 observation %+v", o)
			}
		case 3:
			if o.Count != 1 || o.Weight != 1 || o.Seconds != 1.0 {
				t.Fatalf("alg 3 observation %+v", o)
			}
		default:
			t.Fatalf("unexpected algorithm %d", o.Algorithm)
		}
	}
	if st.Size() != 1 {
		t.Fatalf("size %d", st.Size())
	}
	// A different expression or a distant instance sees nothing.
	if obs := st.Near("GLS", inst, 0.01); len(obs) != 0 {
		t.Fatalf("cross-expression leak: %v", obs)
	}
	if obs := st.Near("AATB", expr.Instance{8, 51, 76}, 0.01); len(obs) != 0 {
		t.Fatalf("distant instance matched: %v", obs)
	}
}

// TestStoreDecayHalvesAtHalfLife is the satellite pin: with a one-hour
// half-life, a record's weight halves after exactly one hour, quarters
// after two, and the mean is unchanged (decay reweights evidence, it
// does not re-time it).
func TestStoreDecayHalvesAtHalfLife(t *testing.T) {
	st, now := frozenStore(16, time.Hour)
	inst := expr.Instance{100, 200, 300}
	st.Add("AATB", inst, 1, 2.0)

	obs := st.Near("AATB", inst, 0.01)
	if len(obs) != 1 || obs[0].Weight != 1.0 {
		t.Fatalf("fresh observation %+v", obs)
	}

	*now += 3600
	obs = st.Near("AATB", inst, 0.01)
	if obs[0].Weight != 0.5 {
		t.Fatalf("after one half-life weight = %v, want exactly 0.5", obs[0].Weight)
	}
	if obs[0].Seconds != 2.0 || obs[0].Count != 1 {
		t.Fatalf("decay changed the evidence: %+v", obs[0])
	}

	*now += 3600
	obs = st.Near("AATB", inst, 0.01)
	if obs[0].Weight != 0.25 {
		t.Fatalf("after two half-lives weight = %v, want exactly 0.25", obs[0].Weight)
	}
}

// TestStoreDecayedMeanFavoursFreshEvidence: a stale slow measurement
// decayed through several half-lives is outvoted by one fresh fast
// measurement, even though the raw count is 1-1.
func TestStoreDecayedMeanFavoursFreshEvidence(t *testing.T) {
	st, now := frozenStore(16, time.Hour)
	inst := expr.Instance{100, 200, 300}
	st.Add("AATB", inst, 1, 10.0) // stale measurement: slow

	*now += 3 * 3600 // three half-lives: stale weight 1/8
	st.Add("AATB", inst, 1, 1.0)

	obs := st.Near("AATB", inst, 0.01)
	if len(obs) != 1 {
		t.Fatalf("observations %v", obs)
	}
	// mean = (0.125*10 + 1*1) / 1.125 = 2.0
	if got := obs[0].Seconds; math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("blended mean %v, want 2.0 (fresh evidence dominating)", got)
	}
	if obs[0].Count != 2 {
		t.Fatalf("raw count %d", obs[0].Count)
	}
}

func TestStoreNoDecayWithoutHalfLife(t *testing.T) {
	st, now := frozenStore(16, 0)
	inst := expr.Instance{10, 20, 30}
	st.Add("AATB", inst, 1, 1.0)
	*now += 1e9
	obs := st.Near("AATB", inst, 0.01)
	if obs[0].Weight != 1.0 {
		t.Fatalf("weight decayed without a half-life: %v", obs[0].Weight)
	}
}

func TestStoreBoundedEviction(t *testing.T) {
	st, _ := frozenStore(4, 0)
	for i := 0; i < 10; i++ {
		st.Add("AATB", expr.Instance{20 + i, 514, 768}, 1, 1e-3)
	}
	if st.Size() != 4 {
		t.Fatalf("size %d, want the 4-record bound", st.Size())
	}
	if obs := st.Near("AATB", expr.Instance{20, 514, 768}, 0.01); len(obs) != 0 {
		t.Fatalf("evicted record still observable: %v", obs)
	}
	if obs := st.Near("AATB", expr.Instance{29, 514, 768}, 0.01); len(obs) == 0 {
		t.Fatal("recent record missing")
	}
}

// TestStoreAddRejectsInvalidSeconds pins Add's own guard: a time that is
// not a positive, finite duration is an error and leaves the store
// untouched, so no caller can poison a stream's mean.
func TestStoreAddRejectsInvalidSeconds(t *testing.T) {
	inst := expr.Instance{80, 514, 768}
	for name, sec := range map[string]float64{
		"zero":          0,
		"negative zero": math.Copysign(0, -1),
		"negative":      -1,
		"NaN":           math.NaN(),
		"+Inf":          math.Inf(1),
		"-Inf":          math.Inf(-1),
	} {
		t.Run(name, func(t *testing.T) {
			st, _ := frozenStore(16, 0)
			if err := st.Add("AATB", inst, 1, sec); err == nil {
				t.Fatalf("Add accepted %v seconds", sec)
			}
			if st.Size() != 0 {
				t.Fatalf("rejected add left %d records", st.Size())
			}
			if err := st.Add("AATB", inst, 1, 0.5); err != nil {
				t.Fatal(err)
			}
			if obs := st.Near("AATB", inst, 0.01); len(obs) != 1 || obs[0].Seconds != 0.5 {
				t.Fatalf("observations after a rejected add %+v", obs)
			}
		})
	}
}
