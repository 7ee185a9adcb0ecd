package runq

import (
	"testing"

	"ucp/internal/sim"
)

// sampledQuickJobs builds quick-profile jobs with a cheap 4-window
// sampled geometry over the given budgets.
func sampledQuickJobs(warm, meas uint64) []Job {
	jobs := quickJobs(warm, meas)
	for i := range jobs {
		jobs[i].Config.Sampling = sim.SamplingConfig{
			Enabled:       true,
			PeriodInsts:   meas / 4,
			DetailedInsts: 2_000,
			WarmInsts:     2_000,
			FFWarmInsts:   5_000,
		}
	}
	return jobs
}

// TestKeyNormalizesWindowParIdentity pins the cache-key contract for
// sampled parallel jobs: any Segments > 1 collapses onto the one
// window-parallel execution (the window plan lives in Config.Sampling),
// and window-parallel never shares a record with the serial sampled run
// — window independence changes the measured bytes.
func TestKeyNormalizesWindowParIdentity(t *testing.T) {
	base := sampledQuickJobs(1000, 8000)[0]
	k0, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	wp := base
	wp.Segments = 4
	kw, _ := Key(wp)
	if kw == k0 {
		t.Error("window-parallel sampled job shares a key with its serial twin")
	}
	wpMore := wp
	wpMore.Segments = 8
	if km, _ := Key(wpMore); km != kw {
		t.Error("segment count leaks into the window-parallel key; the window plan comes from the sampling geometry")
	}
	geom := wp
	geom.Config.Sampling.DetailedInsts = 1_000
	geom.Config.Sampling.WarmInsts = 1_000
	if kg, _ := Key(geom); kg == kw {
		t.Error("sampling geometry not in the window-parallel key")
	}
}

// TestSampledSegmentedJobsDeterministicAcrossWorkerCounts is the
// pool-level tentpole bar for the sampled composition: sampled jobs
// with Segments > 1 route through wpar and must produce byte-identical
// digests whether the pool runs one worker or eight.
func TestSampledSegmentedJobsDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := sampledQuickJobs(10_000, 40_000)
	for i := range jobs {
		jobs[i].Segments = 4
	}
	serial := New(Options{Workers: 1}).RunAll(jobs)
	parallel := New(Options{Workers: 8}).RunAll(jobs)
	for i := range jobs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Result.Sampled == nil || serial[i].Result.Sampled.Windows != 4 {
			t.Fatalf("job %d is not window-parallel sampled: Sampled = %+v", i, serial[i].Result.Sampled)
		}
		if serial[i].Result.TimePar == nil || serial[i].Result.TimePar.Segments != 4 {
			t.Fatalf("job %d carries no window provenance: TimePar = %+v", i, serial[i].Result.TimePar)
		}
		a, b := serial[i].Result.DeterminismDigest(), parallel[i].Result.DeterminismDigest()
		if a != b {
			t.Fatalf("job %d digests diverge between 1 and 8 workers:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestSampledSegmentedDiskCacheRoundTrip: a window-parallel result —
// Sampled and TimePar blocks both populated — must survive the on-disk
// result cache and replay byte-identically in a fresh pool.
func TestSampledSegmentedDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jobs := sampledQuickJobs(10_000, 40_000)[:1]
	jobs[0].Segments = 4

	cold := New(Options{Workers: 2, CacheDir: dir}).RunAll(jobs)
	if cold[0].Err != nil {
		t.Fatal(cold[0].Err)
	}
	if cold[0].Source != SourceRun {
		t.Fatalf("cold source = %q, want %q", cold[0].Source, SourceRun)
	}
	warm := New(Options{Workers: 2, CacheDir: dir}).RunAll(jobs)
	if warm[0].Err != nil {
		t.Fatal(warm[0].Err)
	}
	if warm[0].Source != SourceDisk {
		t.Fatalf("warm source = %q, want %q", warm[0].Source, SourceDisk)
	}
	if warm[0].Result.DeterminismDigest() != cold[0].Result.DeterminismDigest() {
		t.Fatal("disk round trip changed the window-parallel result")
	}
}

// TestSerialSampledUnaffectedBySegmentsField: Segments <= 1 on a
// sampled job stays on the serial sampled engine regardless of the
// trace source mode.
func TestSerialSampledUnaffectedBySegmentsField(t *testing.T) {
	jobs := sampledQuickJobs(10_000, 40_000)[:1]
	r0 := New(Options{Workers: 1}).RunAll(jobs)
	jobs[0].Segments = 1
	r1 := New(Options{Workers: 1}).RunAll(jobs)
	if r0[0].Err != nil || r1[0].Err != nil {
		t.Fatalf("serial sampled runs failed: %v / %v", r0[0].Err, r1[0].Err)
	}
	if r0[0].Result.TimePar != nil {
		t.Fatalf("serial sampled run grew a TimePar block: %+v", r0[0].Result.TimePar)
	}
	if r0[0].Result.DeterminismDigest() != r1[0].Result.DeterminismDigest() {
		t.Fatal("Segments=1 changed the serial sampled result")
	}
}
