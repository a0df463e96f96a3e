// Package admission is the multi-tenant admission scheduler behind
// internal/serve: a scheduler-for-the-scheduler that decides which
// schedule request gets the next worker slot.
//
// Each tenant has its own queues, a fairness weight and an optional
// concurrency quota; requests carry a priority tier. Slots are granted
//
//   - strictly by tier first (an interactive layer request overtakes
//     any number of queued batch network sweeps),
//   - then by dominant-resource fairness across tenants: the tenant
//     whose served search-seconds per unit weight is lowest goes next,
//   - and FIFO within one tenant and tier, so a tenant's own requests
//     complete in arrival order.
//
// A granted request may also be preempted: when an interactive request
// arrives and every slot is busy, the scheduler cancels the context of
// one running preemptible batch grant with cause ErrPreempted. The
// victim's search stops at its next cancellation point, releases its
// slot, and the server re-enqueues it. Fairness is accounted in
// search-seconds: a grant charges its tenant for the wall-clock it held
// the slot (preempted work included — it consumed the resource).
package admission

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrPreempted is the cause of a grant's context once the grant has
// been preempted by a higher-priority request. The holder must abandon
// its partial work, release the grant, and re-acquire before retrying.
var ErrPreempted = errors.New("admission: grant preempted by a higher-priority request")

// Tier is a request's priority class. Lower tiers preempt higher ones;
// the zero value TierAuto lets the tenant configuration (or the
// caller's default) decide.
type Tier int

const (
	// TierAuto defers the choice to the tenant config; a request that
	// still resolves to TierAuto runs at TierBatch.
	TierAuto Tier = iota
	// TierInteractive is the latency-bound class (single-layer
	// requests): it overtakes every queued batch request and preempts
	// running preemptible batch grants when no slot is free.
	TierInteractive
	// TierBatch is the throughput-bound class (whole-network sweeps).
	TierBatch
)

// numTiers is the number of real (non-auto) tiers.
const numTiers = 2

// tierIndex maps a resolved tier to its queue index.
func tierIndex(t Tier) int { return int(t) - 1 }

// String names the tier for flags, metrics and error bodies.
func (t Tier) String() string {
	switch t {
	case TierAuto:
		return "auto"
	case TierInteractive:
		return "interactive"
	case TierBatch:
		return "batch"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// ParseTier is the inverse of Tier.String, for flag parsing.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "auto":
		return TierAuto, nil
	case "interactive":
		return TierInteractive, nil
	case "batch":
		return TierBatch, nil
	default:
		return TierAuto, fmt.Errorf("unknown tier %q (want auto, interactive or batch)", s)
	}
}

// TenantConfig pre-registers one tenant. Tenants not configured are
// created on first use with weight 1, no quota and TierAuto.
type TenantConfig struct {
	// Name identifies the tenant (the request's tenant field or
	// X-Flexer-Tenant header value).
	Name string
	// Weight is the tenant's fair share: under saturation, tenants
	// receive served search-seconds proportional to their weights
	// (<= 0 means 1).
	Weight float64
	// Quota caps the tenant's concurrently running grants (0 = no cap
	// beyond the pool size).
	Quota int
	// Tier, when not TierAuto, forces every request of this tenant to
	// that tier regardless of what the caller asked for (e.g. pinning
	// a bulk-scan tenant to TierBatch).
	Tier Tier
}

// Config tunes a Scheduler.
type Config struct {
	// Slots is the worker-pool size being arbitrated (<= 0 is treated
	// as 1).
	Slots int
	// MaxQueueDepth bounds each tenant's wait queue: a request that
	// arrives with that many of its tenant's requests already waiting
	// is shed with *QueueFullError (0 = 4x Slots; negative =
	// unlimited).
	MaxQueueDepth int
	// Tenants pre-registers tenants with non-default weights, quotas
	// or tiers.
	Tenants []TenantConfig
}

// QueueFullError is returned by Acquire when the tenant's queue is at
// its depth bound; it carries the per-tenant queue view for 429 bodies.
type QueueFullError struct {
	// Tenant is the queue that was full.
	Tenant string
	// Queued is how many of the tenant's requests were already
	// waiting.
	Queued int
	// Limit is the per-tenant queue bound that was hit.
	Limit int
	// Position is the 1-based queue position the shed request would
	// have occupied (Queued + 1).
	Position int
}

// Error describes the shed.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("admission: tenant %q queue is full (%d waiting, limit %d)", e.Tenant, e.Queued, e.Limit)
}

// Request is one admission request.
type Request struct {
	// Tenant bills and queues the request (empty = "default").
	Tenant string
	// Tier is the priority class; TierAuto resolves to the tenant's
	// configured tier, or TierBatch.
	Tier Tier
	// Preemptible marks the holder as able to stop when its grant's
	// context is cancelled; only preemptible batch grants are ever
	// preempted.
	Preemptible bool
}

// waiter is one queued Acquire call.
type waiter struct {
	ctx         context.Context
	tenant      *tenant
	tier        Tier
	seq         uint64
	preemptible bool
	ready       chan *Grant
	cancelled   bool
}

// tenant is the scheduler's per-tenant state. All fields are guarded
// by the scheduler mutex.
type tenant struct {
	name    string
	weight  float64
	quota   int
	tier    Tier
	queues  [numTiers][]*waiter
	queued  int
	running map[*Grant]struct{}
	// served is the tenant's charged search-seconds; the DRF usage a
	// grant decision compares is served plus the elapsed time of every
	// running grant, normalized by weight.
	served    float64
	granted   int64
	shed      int64
	preempted int64
}

// Scheduler arbitrates a fixed pool of worker slots between tenant
// queues. Safe for concurrent use.
type Scheduler struct {
	mu              sync.Mutex
	slots           int
	free            int
	depth           int // per-tenant queue bound; -1 = unlimited
	tenants         map[string]*tenant
	seq             uint64
	pendingPreempts int // grants signalled but not yet released

	// now is the clock, swappable in tests.
	now func() time.Time
}

// NewScheduler returns a scheduler for cfg.
func NewScheduler(cfg Config) *Scheduler {
	slots := cfg.Slots
	if slots <= 0 {
		slots = 1
	}
	depth := cfg.MaxQueueDepth
	if depth == 0 {
		depth = 4 * slots
	} else if depth < 0 {
		depth = -1
	}
	s := &Scheduler{
		slots:   slots,
		free:    slots,
		depth:   depth,
		tenants: make(map[string]*tenant),
		now:     time.Now,
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			continue
		}
		t := s.tenantLocked(tc.Name)
		if tc.Weight > 0 {
			t.weight = tc.Weight
		}
		t.quota = tc.Quota
		t.tier = tc.Tier
	}
	return s
}

// QueueDepth returns the effective per-tenant queue bound (-1 =
// unlimited).
func (s *Scheduler) QueueDepth() int { return s.depth }

// tenantLocked returns (creating on demand) the named tenant.
func (s *Scheduler) tenantLocked(name string) *tenant {
	if name == "" {
		name = "default"
	}
	t, ok := s.tenants[name]
	if !ok {
		t = &tenant{name: name, weight: 1, running: make(map[*Grant]struct{})}
		s.tenants[name] = t
	}
	return t
}

// resolveTier applies the tenant's tier override and the batch
// fallback.
func resolveTier(t *tenant, req Tier) Tier {
	if t.tier != TierAuto {
		return t.tier
	}
	if req == TierAuto {
		return TierBatch
	}
	return req
}

// usageLocked is the tenant's DRF usage: charged search-seconds plus
// the elapsed seconds of every running grant, per unit weight.
func (s *Scheduler) usageLocked(t *tenant, now time.Time) float64 {
	u := t.served
	for g := range t.running {
		u += now.Sub(g.start).Seconds()
	}
	return u / t.weight
}

// headLocked returns the first live waiter of q, discarding cancelled
// ones (their queued counts were adjusted at cancellation).
func headLocked(q *[]*waiter) *waiter {
	for len(*q) > 0 {
		w := (*q)[0]
		if w.cancelled {
			(*q)[0] = nil
			*q = (*q)[1:]
			continue
		}
		return w
	}
	return nil
}

// underQuotaLocked reports whether t may start another grant.
func underQuotaLocked(t *tenant) bool {
	return t.quota <= 0 || len(t.running) < t.quota
}

// pickLocked selects the next waiter to grant: highest tier first,
// then lowest DRF usage across eligible tenants, ties broken by
// arrival order. Returns nil when nothing is grantable.
func (s *Scheduler) pickLocked() *waiter {
	now := s.now()
	for ti := 0; ti < numTiers; ti++ {
		var best *waiter
		var bestUsage float64
		for _, t := range s.tenants {
			w := headLocked(&t.queues[ti])
			if w == nil || !underQuotaLocked(t) {
				continue
			}
			u := s.usageLocked(t, now)
			if best == nil || u < bestUsage || (u == bestUsage && w.seq < best.seq) {
				best, bestUsage = w, u
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// dispatchLocked grants free slots to queued waiters until either runs
// out.
func (s *Scheduler) dispatchLocked() {
	for s.free > 0 {
		w := s.pickLocked()
		if w == nil {
			return
		}
		t := w.tenant
		q := &t.queues[tierIndex(w.tier)]
		(*q)[0] = nil
		*q = (*q)[1:]
		t.queued--
		s.free--
		g := &Grant{
			s:           s,
			ctx:         w.ctx,
			tenant:      t,
			tier:        w.tier,
			preemptible: w.preemptible,
			start:       s.now(),
		}
		if g.preemptible {
			g.ctx, g.cancel = context.WithCancelCause(w.ctx)
		}
		t.running[g] = struct{}{}
		t.granted++
		w.ready <- g
	}
}

// maybePreemptLocked cancels running preemptible batch grants when
// queued interactive work cannot otherwise get a slot. One victim is
// cancelled per missing slot; the slot actually frees when the victim
// stops at its next cancellation point and releases.
func (s *Scheduler) maybePreemptLocked() {
	need := 0
	for _, t := range s.tenants {
		live := 0
		for _, w := range t.queues[tierIndex(TierInteractive)] {
			if w != nil && !w.cancelled {
				live++
			}
		}
		if t.quota > 0 {
			if room := t.quota - len(t.running); live > room {
				live = room
			}
			if live < 0 {
				live = 0
			}
		}
		need += live
	}
	deficit := need - s.free - s.pendingPreempts
	for deficit > 0 {
		v := s.victimLocked()
		if v == nil {
			return
		}
		v.preempted = true
		v.tenant.preempted++
		s.pendingPreempts++
		v.cancel(ErrPreempted)
		deficit--
	}
}

// victimLocked picks the running preemptible batch grant that started
// most recently (least work lost), or nil.
func (s *Scheduler) victimLocked() *Grant {
	var v *Grant
	for _, t := range s.tenants {
		for g := range t.running {
			if g.tier != TierBatch || !g.preemptible || g.preempted {
				continue
			}
			if v == nil || g.start.After(v.start) {
				v = g
			}
		}
	}
	return v
}

// Acquire takes one worker slot on behalf of req, waiting in the
// tenant's queue as needed. It returns *QueueFullError when the
// tenant's queue is at its bound, or ctx.Err() when the context ends
// first. The returned grant must be released exactly once.
func (s *Scheduler) Acquire(ctx context.Context, req Request) (*Grant, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	t := s.tenantLocked(req.Tenant)
	tier := resolveTier(t, req.Tier)
	s.seq++
	w := &waiter{
		ctx:         ctx,
		tenant:      t,
		tier:        tier,
		seq:         s.seq,
		preemptible: req.Preemptible,
		ready:       make(chan *Grant, 1),
	}
	t.queues[tierIndex(tier)] = append(t.queues[tierIndex(tier)], w)
	t.queued++
	s.dispatchLocked()
	select {
	case g := <-w.ready:
		s.mu.Unlock()
		return g, nil
	default:
	}
	// Not immediately grantable: shed if the tenant's queue (beyond
	// this request) is already at the bound.
	if s.depth >= 0 && t.queued > s.depth {
		w.cancelled = true
		t.queued--
		t.shed++
		qf := &QueueFullError{Tenant: t.name, Queued: t.queued, Limit: s.depth, Position: t.queued + 1}
		s.mu.Unlock()
		return nil, qf
	}
	if tier == TierInteractive {
		s.maybePreemptLocked()
	}
	s.mu.Unlock()

	select {
	case g := <-w.ready:
		return g, nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case g := <-w.ready:
			// A grant raced the cancellation; hand the slot back
			// without charging.
			s.mu.Unlock()
			g.release(0)
		default:
			w.cancelled = true
			w.tenant.queued--
			s.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

// Grant is one held worker slot.
type Grant struct {
	s           *Scheduler
	ctx         context.Context
	cancel      context.CancelCauseFunc // nil unless preemptible
	tenant      *tenant
	tier        Tier
	preemptible bool
	start       time.Time
	preempted   bool // guarded by s.mu
	once        sync.Once
}

// Context is what the holder runs its work under. A non-preemptible
// grant's is Acquire's ctx itself. A preemptible grant's is a child of
// it, cancelled with cause ErrPreempted when the grant is preempted and
// with no cause of its own at Release, so context.Cause reports a
// preemption even after the release.
func (g *Grant) Context() context.Context { return g.ctx }

// Release frees the slot and charges the tenant the wall-clock seconds
// the grant was held. Safe to call more than once; only the first call
// has effect.
func (g *Grant) Release() {
	g.release(g.s.now().Sub(g.start).Seconds())
}

// release frees the slot charging seconds of search time: Release's
// wall-clock, or an explicit charge (0 for a grant that raced its
// Acquire's cancellation).
func (g *Grant) release(seconds float64) {
	g.once.Do(func() {
		s := g.s
		s.mu.Lock()
		delete(g.tenant.running, g)
		g.tenant.served += seconds
		s.free++
		if g.preempted {
			s.pendingPreempts--
		}
		s.dispatchLocked()
		s.mu.Unlock()
		if g.cancel != nil {
			g.cancel(nil)
		}
	})
}

// TenantStats is one tenant's point-in-time admission state.
type TenantStats struct {
	Name          string  `json:"name"`
	Weight        float64 `json:"weight"`
	Quota         int     `json:"quota,omitempty"`
	Tier          string  `json:"tier,omitempty"`
	Queued        int     `json:"queued"`
	Running       int     `json:"running"`
	ServedSeconds float64 `json:"served_seconds"`
	Granted       int64   `json:"granted"`
	Shed          int64   `json:"shed"`
	Preempted     int64   `json:"preempted"`
}

// Stats is a point-in-time snapshot of the whole scheduler.
type Stats struct {
	Slots   int           `json:"slots"`
	Free    int           `json:"free"`
	Queued  int           `json:"queued"`
	Running int           `json:"running"`
	Tenants []TenantStats `json:"tenants"`
}

// Stats snapshots the scheduler. Tenants are sorted by name so the
// expvar rendering is stable.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Slots: s.slots, Free: s.free}
	for _, t := range s.tenants {
		ts := TenantStats{
			Name:          t.name,
			Weight:        t.weight,
			Quota:         t.quota,
			Queued:        t.queued,
			Running:       len(t.running),
			ServedSeconds: t.served,
			Granted:       t.granted,
			Shed:          t.shed,
			Preempted:     t.preempted,
		}
		if t.tier != TierAuto {
			ts.Tier = t.tier.String()
		}
		st.Queued += t.queued
		st.Running += len(t.running)
		st.Tenants = append(st.Tenants, ts)
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })
	return st
}
