package cluster

import (
	"fmt"
	"testing"
)

func testPeers(n int) []string {
	var peers []string
	for i := 0; i < n; i++ {
		peers = append(peers, fmt.Sprintf("http://10.0.0.%d:8080", i+1))
	}
	return peers
}

// TestRingDeterministic: every node must compute the same ring, so
// construction order and duplicates must not matter.
func TestRingDeterministic(t *testing.T) {
	peers := testPeers(5)
	a := newRing(peers, 64)
	shuffled := []string{peers[3], peers[0], peers[4], peers[0], peers[2], peers[1]}
	b := newRing(shuffled, 64)
	if a.size() != 5 || b.size() != 5 {
		t.Fatalf("sizes = %d, %d, want 5 (duplicates dropped)", a.size(), b.size())
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Home(key) != b.Home(key) {
			t.Fatalf("key %q homes differ: %q vs %q", key, a.Home(key), b.Home(key))
		}
	}
}

// TestRingBalance: with enough virtual nodes no peer should own a
// wildly disproportionate key share.
func TestRingBalance(t *testing.T) {
	r := newRing(testPeers(4), 0) // default vnodes
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.Home(fmt.Sprintf("layer|%d|opts", i))]++
	}
	for p, n := range counts {
		share := float64(n) / keys
		if share < 0.10 || share > 0.45 {
			t.Errorf("peer %s owns %.1f%% of keys, want a roughly fair share", p, 100*share)
		}
	}
	if len(counts) != 4 {
		t.Errorf("only %d of 4 peers own keys", len(counts))
	}
}

// TestRingStability: removing one peer moves only the keys homed on
// it; every other key keeps its home. This is the property that makes
// failover cheap and rejoin exact.
func TestRingStability(t *testing.T) {
	peers := testPeers(5)
	full := newRing(peers, 64)
	without := newRing(peers[:4], 64) // drop the last peer
	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		homeFull := full.Home(key)
		homeLess := without.Home(key)
		if homeFull == peers[4] {
			moved++
			continue // its keys must move somewhere
		}
		if homeFull != homeLess {
			t.Fatalf("key %q moved from %q to %q though its home survived", key, homeFull, homeLess)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// TestRingSequence: the failover sequence starts at the home and
// visits every peer exactly once.
func TestRingSequence(t *testing.T) {
	r := newRing(testPeers(4), 32)
	seq := r.sequence("some-key")
	if len(seq) != 4 {
		t.Fatalf("sequence length = %d, want 4", len(seq))
	}
	if seq[0] != r.Home("some-key") {
		t.Errorf("sequence[0] = %q, want home %q", seq[0], r.Home("some-key"))
	}
	seen := map[string]bool{}
	for _, p := range seq {
		if seen[p] {
			t.Errorf("peer %q appears twice in sequence", p)
		}
		seen[p] = true
	}
}

// TestRingSuccessor: the successor is a distinct live-able peer, and a
// two-peer ring's successors point at each other.
func TestRingSuccessor(t *testing.T) {
	peers := testPeers(3)
	r := newRing(peers, 16)
	for _, p := range peers {
		s := r.successorOf(p)
		if s == "" || s == p {
			t.Errorf("SuccessorOf(%q) = %q, want a distinct peer", p, s)
		}
		if !r.Contains(s) {
			t.Errorf("successor %q not on ring", s)
		}
	}
	if got := r.successorOf("http://not-a-peer:1"); got != "" {
		t.Errorf("SuccessorOf(unknown) = %q, want \"\"", got)
	}
	two := newRing(peers[:2], 16)
	if two.successorOf(peers[0]) != peers[1] || two.successorOf(peers[1]) != peers[0] {
		t.Errorf("two-peer successors should point at each other")
	}
	one := newRing(peers[:1], 16)
	if got := one.successorOf(peers[0]); got != "" {
		t.Errorf("single-peer SuccessorOf = %q, want \"\"", got)
	}
}
