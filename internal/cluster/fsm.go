package cluster

import "fmt"

// State is one peer's position in the health FSM.
//
//	healthy --fail x suspectAfter--> suspect
//	suspect --fail x downAfter------> down      (counted from the first failure)
//	suspect --ok--------------------> healthy   (one success clears suspicion)
//	down ----ok x upAfter-----------> healthy   (rejoin)
//
// Suspect is a routing-neutral warning state: a suspect peer still
// receives its homed requests (one dropped probe must not reshuffle
// the ring), but the operator can see the probe failures building up.
// Only Down triggers failover, and only a run of upAfter consecutive
// probe successes ends it, so a flapping peer cannot oscillate its
// ring segment on every probe.
type State int

const (
	// StateHealthy is the steady state: probes succeed, requests route.
	StateHealthy State = iota
	// StateSuspect means recent probes failed but not enough to divert
	// traffic; the prober keeps probing at full cadence.
	StateSuspect
	// StateDown means the peer missed downAfter consecutive probes;
	// requests homed on it fail over to its ring successors and the
	// prober backs off exponentially.
	StateDown
)

// String renders the state for logs, metrics and tests.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// The FSM's transition counts.
const (
	// suspectAfter is the consecutive-failure count that demotes a
	// healthy peer to suspect: the first failed probe.
	suspectAfter = 1
	// downAfter is the consecutive-failure count that marks a peer
	// down, counted from the first failure; it exceeds suspectAfter,
	// so suspect is always visited on the way down.
	downAfter = 3
	// upAfter is the consecutive-success count that rejoins a down
	// peer. Suspect needs only one success.
	upAfter = 2
)

// FSM tracks one peer's health from a stream of probe outcomes. It is
// not safe for concurrent use; Cluster serializes Observe calls under
// its own lock. The zero value is not usable; construct with newFSM.
type FSM struct {
	state State
	fails int // consecutive failures
	oks   int // consecutive successes
}

// newFSM returns a healthy FSM.
func newFSM() *FSM {
	return &FSM{state: StateHealthy}
}

// observe feeds one probe outcome into the FSM and returns the state
// after the observation plus whether it changed.
func (f *FSM) observe(ok bool) (State, bool) {
	prev := f.state
	if ok {
		f.oks++
		f.fails = 0
		switch f.state {
		case StateSuspect:
			f.state = StateHealthy
		case StateDown:
			if f.oks >= upAfter {
				f.state = StateHealthy
			}
		}
	} else {
		f.fails++
		f.oks = 0
		switch {
		case f.fails >= downAfter:
			f.state = StateDown
		case f.state == StateHealthy && f.fails >= suspectAfter:
			f.state = StateSuspect
		}
	}
	return f.state, f.state != prev
}
