package peepul_test

import (
	"testing"

	"repro/peepul"
)

// TestCertifyAll runs the full certification (exhaustive + random
// exploration of the store LTS, checking Φ_do, Φ_merge, Φ_spec, Φ_con at
// every transition) for every registered MRDT. This is the reproduction's
// counterpart of the paper's Table 3 verification runs.
func TestCertifyAll(t *testing.T) {
	for _, r := range peepul.All() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := r.Config()
			if testing.Short() {
				cfg.RandomExecutions = min(cfg.RandomExecutions, 25)
			}
			rep := r.Certify(cfg)
			if rep.Err != nil {
				t.Fatalf("certification failed: %v", rep.Err)
			}
			if rep.Obligations == 0 || rep.Executions == 0 {
				t.Fatalf("suspicious report: %+v", rep)
			}
			t.Logf("%s: %d executions, %d transitions, %d obligations in %v",
				rep.Name, rep.Executions, rep.Transitions, rep.Obligations, rep.Duration)
		})
	}
}

// TestCertifyDeep pushes the exhaustive bound one level deeper (the state
// space grows by roughly an order of magnitude) and runs a second random
// seed. Skipped under -short; the default depth already covers every
// two-branch interaction of up to four transitions.
func TestCertifyDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep certification skipped in -short mode")
	}
	for _, r := range peepul.All() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := r.Config()
			cfg.MaxSteps++
			cfg.RandomExecutions /= 2
			cfg.Seed = 2
			rep := r.Certify(cfg)
			if rep.Err != nil {
				t.Fatalf("deep certification failed: %v", rep.Err)
			}
			t.Logf("%s: %d executions, %d obligations in %v",
				rep.Name, rep.Executions, rep.Obligations, rep.Duration)
		})
	}
}

// TestCertifySmokeFastBounds keeps a cheap always-on configuration so a
// broken obligation fails fast even under -short.
func TestCertifySmokeFastBounds(t *testing.T) {
	cfg := peepul.Config{
		MaxBranches:      2,
		MaxSteps:         3,
		RandomExecutions: 10,
		RandomSteps:      12,
		RandomBranches:   3,
		Seed:             7,
	}
	for _, r := range peepul.All() {
		if rep := r.Certify(cfg); rep.Err != nil {
			t.Errorf("%s: %v", r.Name(), rep.Err)
		}
	}
}
