package mesh

// Quarantine state-machine tests against the scripted Syncer: the
// classifier decides transient vs. violation, violations accumulate
// toward quarantine across interleaved transient failures, the
// quarantine schedule replaces the ordinary backoff, and one clean
// exchange lifts the state while keeping the recorded reason.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

var errCorrupt = errors.New("corrupt frame from peer")

// violationConfig is fastConfig plus a classifier that marks errCorrupt
// a violation and a tight quarantine window.
func violationConfig() Config {
	c := fastConfig()
	c.Classify = func(err error) FailureClass {
		if errors.Is(err, errCorrupt) {
			return FailViolation
		}
		return FailTransient
	}
	c.QuarantineAfter = 3
	c.QuarantineMin = 60 * time.Millisecond
	c.QuarantineMax = 240 * time.Millisecond
	return c
}

func peerState(t *testing.T, e *Engine, addr string) PeerStats {
	t.Helper()
	st, ok := e.PeerStats(addr)
	if !ok {
		t.Fatalf("peer %s not supervised", addr)
	}
	return st
}

func TestQuarantineAfterConsecutiveViolations(t *testing.T) {
	s := &script{fn: func(ctx context.Context, n int, addr, kind string) (Report, error) {
		return Report{}, errCorrupt
	}}
	e := New(s, violationConfig())
	defer e.Close()
	e.AddPeer("p1")
	waitFor(t, "quarantine", func() bool { return peerState(t, e, "p1").Quarantined })
	st := peerState(t, e, "p1")
	if st.Violations < 3 || st.ConsecutiveViolations < 3 {
		t.Fatalf("violations = %d (consecutive %d), want >= 3", st.Violations, st.ConsecutiveViolations)
	}
	if st.Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", st.Quarantines)
	}
	if !strings.Contains(st.QuarantineReason, "corrupt frame") {
		t.Fatalf("quarantine reason %q does not record the violation", st.QuarantineReason)
	}
	if st.Backoff < 60*time.Millisecond {
		t.Fatalf("backoff %v below the quarantine schedule's minimum", st.Backoff)
	}
}

func TestTransientFailuresNeverQuarantine(t *testing.T) {
	s := &script{fn: func(ctx context.Context, n int, addr, kind string) (Report, error) {
		return Report{}, errors.New("connection refused")
	}}
	e := New(s, violationConfig())
	defer e.Close()
	e.AddPeer("p1")
	waitFor(t, "a failing streak", func() bool { return peerState(t, e, "p1").ConsecutiveFailures >= 5 })
	st := peerState(t, e, "p1")
	if st.Quarantined || st.Violations != 0 {
		t.Fatalf("transient failures quarantined the peer: %+v", st)
	}
	if st.Backoff > 40*time.Millisecond {
		t.Fatalf("backoff %v escaped the ordinary schedule", st.Backoff)
	}
}

func TestTransientFailureDoesNotResetViolationStreak(t *testing.T) {
	// Violations interleaved with resets — the signature of a corrupting
	// peer whose cuts sometimes beat its corruption. The streak must
	// survive the transient failures, or mixed-fault peers never
	// quarantine.
	s := &script{fn: func(ctx context.Context, n int, addr, kind string) (Report, error) {
		if n%2 == 0 {
			return Report{}, errCorrupt
		}
		return Report{}, errors.New("connection reset")
	}}
	e := New(s, violationConfig())
	defer e.Close()
	e.AddPeer("p1")
	waitFor(t, "quarantine despite interleaved resets", func() bool {
		return peerState(t, e, "p1").Quarantined
	})
}

func TestQuarantineRecoveryOnCleanExchange(t *testing.T) {
	s := &script{fn: func(ctx context.Context, n int, addr, kind string) (Report, error) {
		if n < 4 {
			return Report{}, errCorrupt
		}
		return Report{}, nil
	}}
	e := New(s, violationConfig())
	defer e.Close()
	e.AddPeer("p1")
	waitFor(t, "quarantine then recovery", func() bool {
		st := peerState(t, e, "p1")
		return !st.Quarantined && st.Quarantines == 1 && st.LastError == ""
	})
	st := peerState(t, e, "p1")
	if st.ConsecutiveViolations != 0 || st.ConsecutiveFailures != 0 {
		t.Fatalf("streaks not cleared on recovery: %+v", st)
	}
	if !strings.Contains(st.QuarantineReason, "corrupt frame") {
		t.Fatalf("recovery erased the quarantine record: %q", st.QuarantineReason)
	}
	if st.Violations < 3 {
		t.Fatalf("violation total %d lost history", st.Violations)
	}
}

func TestQuarantineBackoffDoublesToMax(t *testing.T) {
	s := &script{fn: func(ctx context.Context, n int, addr, kind string) (Report, error) {
		return Report{}, errCorrupt
	}}
	e := New(s, violationConfig())
	defer e.Close()
	e.AddPeer("p1")
	waitFor(t, "quarantine backoff cap", func() bool {
		return peerState(t, e, "p1").Backoff == 240*time.Millisecond
	})
	// Still quarantined, still counting, never past the cap.
	st := peerState(t, e, "p1")
	if !st.Quarantined {
		t.Fatalf("peer left quarantine while still violating: %+v", st)
	}
}

func TestNilClassifierNeverQuarantines(t *testing.T) {
	s := &script{fn: func(ctx context.Context, n int, addr, kind string) (Report, error) {
		return Report{}, errCorrupt
	}}
	e := New(s, fastConfig()) // no Classify
	defer e.Close()
	e.AddPeer("p1")
	waitFor(t, "a failing streak", func() bool { return peerState(t, e, "p1").ConsecutiveFailures >= 4 })
	if st := peerState(t, e, "p1"); st.Quarantined || st.Violations != 0 {
		t.Fatalf("nil classifier produced violations: %+v", st)
	}
}
