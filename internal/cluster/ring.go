package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over the peer set. Every peer owns
// the same number of virtual-node points on a 64-bit circle; a key's
// home is the peer owning the first point at or after the key's hash.
// Virtual nodes smooth the per-peer key share (with 64 vnodes the
// imbalance across a handful of peers stays within a few percent), and
// consistent hashing keeps reassignment minimal: adding or removing one
// peer moves only the keys homed on it, never reshuffles the rest.
//
// The ring is immutable after construction and therefore trivially
// safe for concurrent lookups. Membership in this PR is static (the
// -peers flag); a dead peer keeps its ring segment, and routing walks
// to the segment's successor instead of rebuilding the ring, so the
// keys snap back to their true home the moment the peer recovers.
type Ring struct {
	points []ringPoint
	peers  []string // distinct peers, sorted
}

// ringPoint is one virtual node: the hash position and its owner.
type ringPoint struct {
	hash uint64
	peer string
}

// DefaultVirtualNodes is the per-peer vnode count of a Cluster's ring.
// 64 points per peer keeps the key-share imbalance low without making
// ring construction or the sorted-points slice costly.
const DefaultVirtualNodes = 64

// newRing builds a ring over the given peers (duplicates are dropped)
// with vnodes virtual nodes per peer (<= 0 = DefaultVirtualNodes).
func newRing(peers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(peers))
	var distinct []string
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		distinct = append(distinct, p)
	}
	sort.Strings(distinct)
	r := &Ring{
		peers:  distinct,
		points: make([]ringPoint, 0, len(distinct)*vnodes),
	}
	for _, p := range distinct {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashString(p + "#" + strconv.Itoa(i)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between two peers' vnodes is vanishingly
		// rare; break the tie deterministically so every node agrees.
		return r.points[i].peer < r.points[j].peer
	})
	return r
}

// hashString is the ring's hash: 64-bit FNV-1a run through a
// murmur-style finalizer. Raw FNV clusters badly on near-identical
// strings ("peer#0".."peer#63" land on one ring arc, skewing key
// shares 20x); the finalizer's avalanche spreads them uniformly.
// Deterministic across processes and Go versions, which is what makes
// every peer compute the same ring.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the 64-bit murmur3/splitmix finalizer: a bijective
// avalanche so every input bit flips about half the output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Size returns the number of distinct peers.
func (r *Ring) Size() int { return len(r.peers) }

// Contains reports whether peer owns any ring segment.
func (r *Ring) Contains(peer string) bool {
	i := sort.SearchStrings(r.peers, peer)
	return i < len(r.peers) && r.peers[i] == peer
}

// Home returns the peer owning key: the owner of the first virtual
// node clockwise from the key's hash. Every node computes the same
// home for the same key, which is what keeps the single-search-per-key
// coalescing invariant global.
func (r *Ring) Home(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.searchIdx(key)].peer
}

// searchIdx locates the first point at or after key's hash, wrapping.
func (r *Ring) searchIdx(key string) int {
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// sequence returns every distinct peer in ring order starting from
// key's home: sequence(key)[0] is the home, and each later entry is
// the failover target should all earlier ones be down. The walk visits
// each peer exactly once, so the slice length equals Size.
func (r *Ring) sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	seq := make([]string, 0, len(r.peers))
	seen := make(map[string]bool, len(r.peers))
	start := r.searchIdx(key)
	for i := 0; len(seq) < len(r.peers); i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			seq = append(seq, p)
		}
	}
	return seq
}

// SuccessorOf returns the distinct peer owning the point immediately
// after peer's first virtual node — the natural first stop for a
// joining peer to pull its home shard from, because the successor
// serves (and caches) a freshly-homed share of the joiner's keys while
// the joiner is away. Returns "" when the ring has fewer than two
// peers or peer is not on it.
func (r *Ring) SuccessorOf(peer string) string {
	if len(r.peers) < 2 || !r.Contains(peer) {
		return ""
	}
	first := hashString(peer + "#0")
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash > first })
	for n := 0; n < len(r.points); n++ {
		p := r.points[(i+n)%len(r.points)].peer
		if p != peer {
			return p
		}
	}
	return ""
}
