package cluster

import "testing"

// step is one scripted probe outcome and the state expected after it.
type step struct {
	ok   bool
	want State
}

// runScript feeds a probe script through a fresh FSM and checks the
// state after every observation.
func runScript(t *testing.T, script []step) {
	t.Helper()
	f := newFSM()
	for i, s := range script {
		got, _ := f.Observe(s.ok)
		if got != s.want {
			t.Fatalf("step %d (ok=%v): state = %v, want %v", i, s.ok, got, s.want)
		}
	}
}

// TestFSMHealthyToSuspectToDown walks the canonical failure path under
// the FSM's thresholds (suspect after 1 failure, down after 3).
func TestFSMHealthyToSuspectToDown(t *testing.T) {
	runScript(t, []step{
		{true, StateHealthy},
		{false, StateSuspect}, // 1st failure
		{false, StateSuspect}, // 2nd
		{false, StateDown},    // 3rd: down
		{false, StateDown},    // stays down
	})
}

// TestFSMSuspectRecovers: one success clears suspicion without needing
// the rejoin streak.
func TestFSMSuspectRecovers(t *testing.T) {
	runScript(t, []step{
		{false, StateSuspect},
		{true, StateHealthy},
		{false, StateSuspect},
		{false, StateSuspect},
		{true, StateHealthy}, // streak reset: two failures then a success
	})
}

// TestFSMRejoinNeedsStreak: a down peer rejoins only after two
// consecutive successes, and an interleaved failure resets the streak.
func TestFSMRejoinNeedsStreak(t *testing.T) {
	runScript(t, []step{
		{false, StateSuspect},
		{false, StateSuspect},
		{false, StateDown},
		{true, StateDown},  // 1 of 2
		{false, StateDown}, // streak broken
		{true, StateDown},
		{true, StateHealthy}, // 2 consecutive: rejoin
		{true, StateHealthy},
	})
}

// TestFSMChangedFlag: Observe reports exactly the transitions.
func TestFSMChangedFlag(t *testing.T) {
	f := newFSM()
	script := []struct {
		ok          bool
		wantChanged bool
	}{
		{true, false},  // healthy stays
		{false, true},  // -> suspect
		{false, false}, // suspect stays
		{false, true},  // -> down
		{true, false},  // 1 of 2 successes
		{true, true},   // -> healthy (rejoin)
		{true, false},
	}
	for i, s := range script {
		if _, changed := f.Observe(s.ok); changed != s.wantChanged {
			t.Fatalf("step %d: changed = %v, want %v", i, changed, s.wantChanged)
		}
	}
}
