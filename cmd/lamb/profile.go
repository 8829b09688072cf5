package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lamb"
	"lamb/internal/profile"
)

// cmdProfile measures the kernel performance grid once and persists it
// as a schema-versioned store — the expensive step of the paper's
// FLOPs+profiles discriminant, done ahead of serving. `lamb serve
// -profile FILE` and `lamb select -profile FILE` then answer
// min-predicted and adaptive queries without any serve-time
// measurement.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	c := registerCommon(fs)
	gridPoints := fs.Int("grid", 8, "profile grid points per dimension")
	out := fs.String("o", "PROFILE.json", "output file")
	if err := c.parse(fs, args); err != nil {
		return err
	}
	if *gridPoints < 2 {
		return fmt.Errorf("-grid must be at least 2 points per dimension (got %d)", *gridPoints)
	}
	ex, err := c.executor()
	if err != nil {
		return err
	}
	t := lamb.NewTimer(ex)
	t.Reps = c.reps
	fmt.Fprintf(os.Stderr, "lamb profile: measuring %d kernel kinds on a %d^3 grid (backend %s, reps %d)...\n",
		lamb.NumKernelKinds, *gridPoints, ex.Name(), c.reps)
	start := time.Now()
	set := lamb.MeasureProfiles(t, *gridPoints)
	elapsed := time.Since(start)

	meta := measuredMeta(ex, c.reps, *gridPoints)
	if err := profile.WriteFile(*out, set, meta); err != nil {
		return err
	}
	fmt.Printf("wrote %s (schema v%d, backend %s, %d^3 grid, measured in %s)\n",
		*out, profile.SchemaVersion, meta.Backend, *gridPoints, elapsed.Round(time.Millisecond))
	return nil
}

// measuredMeta is the provenance for a profile set measured right here:
// host description plus the measurement protocol. Shared by `lamb
// profile` and the measure-on-demand path of `lamb select`.
func measuredMeta(ex lamb.Executor, reps, gridPoints int) lamb.ProfileMeta {
	meta := profile.HostMeta()
	meta.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	meta.Backend = ex.Name()
	meta.Reps = reps
	meta.GridPoints = gridPoints
	meta.PeakFlops = ex.Peak()
	return meta
}
