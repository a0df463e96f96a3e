package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// mustAcquire acquires or fails the test.
func mustAcquire(t *testing.T, s *Scheduler, req Request) *Grant {
	t.Helper()
	g, err := s.Acquire(context.Background(), req)
	if err != nil {
		t.Fatalf("Acquire(%+v): %v", req, err)
	}
	return g
}

// TestGrantOrderIsFIFO is the regression test for the old channel
// semaphore, whose arbitrary wakeup order let a just-arrived request
// beat one queued for minutes: with one slot held, N requests queued
// one at a time must be granted in exactly arrival order.
func TestGrantOrderIsFIFO(t *testing.T) {
	s := NewScheduler(Config{Slots: 1, MaxQueueDepth: -1})
	blocker := mustAcquire(t, s, Request{})

	const n = 20
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := mustAcquire(t, s, Request{})
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			g.release(0)
		}(i)
		// Admit strictly one at a time so queue order is the launch
		// order.
		waitFor(t, "request to queue", func() bool { return s.Stats().Queued == i+1 })
	}

	blocker.release(0)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want strict FIFO 0..%d", order, n-1)
		}
	}
}

// TestWeightedFairness is the DRF acceptance test: two tenants
// weighted 3:1 saturating a one-slot pool must converge to served
// search-seconds in ratio 3:1 +-10%.
func TestWeightedFairness(t *testing.T) {
	s := NewScheduler(Config{
		Slots:         1,
		MaxQueueDepth: -1,
		Tenants: []TenantConfig{
			{Name: "heavy", Weight: 3},
			{Name: "light", Weight: 1},
		},
	})

	// Hold the only slot until every request is queued, and queue more
	// per tenant than the measured window grants in total: both tenants
	// then have a waiter at every release by construction, whatever the
	// goroutine scheduler does. (Workers that re-queue in a loop leave
	// their tenant's queue empty whenever both are descheduled between
	// release and re-acquire, and the other tenant then ping-pongs the
	// slot — under -race on two cores that failed four runs in ten.)
	blocker := mustAcquire(t, s, Request{Tenant: "warmup"})

	const window = 400 // grants measured
	var granted atomic.Int64
	var atWindow Stats
	var wg sync.WaitGroup
	for _, tenant := range []string{"heavy", "light"} {
		for w := 0; w < window; w++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				g := mustAcquire(t, s, Request{Tenant: tenant})
				if granted.Add(1) == window {
					// The one slot is held here, so the snapshot is the
					// exact account of the window-1 grants before it.
					atWindow = s.Stats()
				}
				// Charge exactly one search-second per grant so the
				// served ratio is deterministic.
				g.release(1)
			}(tenant)
		}
	}
	waitFor(t, "every request to queue", func() bool { return s.Stats().Queued == 2*window })
	blocker.release(0)
	wg.Wait()

	var heavy, light float64
	for _, ts := range atWindow.Tenants {
		switch ts.Name {
		case "heavy":
			heavy = ts.ServedSeconds
		case "light":
			light = ts.ServedSeconds
		}
	}
	if light == 0 {
		t.Fatal("light tenant was starved entirely")
	}
	ratio := heavy / light
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("served ratio heavy/light = %.2f (heavy %.0fs, light %.0fs), want 3.0 +-10%%", ratio, heavy, light)
	}
}

// TestInteractiveOvertakesBatch: a batch request queued first must not
// be granted before an interactive request queued after it.
func TestInteractiveOvertakesBatch(t *testing.T) {
	s := NewScheduler(Config{Slots: 1, MaxQueueDepth: -1})
	blocker := mustAcquire(t, s, Request{Tier: TierBatch})

	type grantRec struct {
		who string
		g   *Grant
	}
	grants := make(chan grantRec, 2)
	go func() {
		g := mustAcquire(t, s, Request{Tenant: "sweeps", Tier: TierBatch})
		grants <- grantRec{"batch", g}
	}()
	waitFor(t, "batch request to queue", func() bool { return s.Stats().Queued == 1 })
	go func() {
		g := mustAcquire(t, s, Request{Tenant: "ui", Tier: TierInteractive})
		grants <- grantRec{"interactive", g}
	}()
	waitFor(t, "interactive request to queue", func() bool { return s.Stats().Queued == 2 })

	blocker.release(0)
	first := <-grants
	if first.who != "interactive" {
		t.Fatalf("first grant went to %s, want the later-queued interactive request", first.who)
	}
	first.g.release(0)
	second := <-grants
	if second.who != "batch" {
		t.Fatalf("second grant went to %s, want batch", second.who)
	}
	second.g.release(0)
}

// TestPreemption: an interactive arrival with every slot busy cancels
// the context of a running preemptible batch grant with cause
// ErrPreempted, and releasing the victim hands the slot to the
// interactive request.
func TestPreemption(t *testing.T) {
	s := NewScheduler(Config{Slots: 1, MaxQueueDepth: -1})
	victim := mustAcquire(t, s, Request{Tenant: "sweeps", Tier: TierBatch, Preemptible: true})
	if err := victim.Context().Err(); err != nil {
		t.Fatalf("context before preemption ended: %v", err)
	}

	grants := make(chan *Grant, 1)
	go func() {
		grants <- mustAcquire(t, s, Request{Tenant: "ui", Tier: TierInteractive})
	}()

	select {
	case <-victim.Context().Done():
	case <-time.After(10 * time.Second):
		t.Fatal("victim was never preempted")
	}
	if cause := context.Cause(victim.Context()); cause != ErrPreempted {
		t.Fatalf("cause after preemption = %v, want ErrPreempted", cause)
	}

	victim.Release()
	if cause := context.Cause(victim.Context()); cause != ErrPreempted {
		t.Errorf("cause after the victim's release = %v, want ErrPreempted still", cause)
	}
	g := <-grants
	g.release(0)

	for _, ts := range s.Stats().Tenants {
		if ts.Name == "sweeps" && ts.Preempted != 1 {
			t.Errorf("sweeps preempted counter = %d, want 1", ts.Preempted)
		}
	}
}

// TestNonPreemptibleIsNotPreempted: a batch grant that did not opt
// into preemption keeps its slot; the interactive request waits.
func TestNonPreemptibleIsNotPreempted(t *testing.T) {
	s := NewScheduler(Config{Slots: 1, MaxQueueDepth: -1})
	g := mustAcquire(t, s, Request{Tier: TierBatch, Preemptible: false})

	done := make(chan *Grant, 1)
	go func() { done <- mustAcquire(t, s, Request{Tier: TierInteractive}) }()
	waitFor(t, "interactive request to queue", func() bool { return s.Stats().Queued == 1 })

	select {
	case <-g.Context().Done():
		t.Fatal("non-preemptible grant was preempted")
	case <-time.After(50 * time.Millisecond):
	}
	g.release(0)
	(<-done).release(0)
}

// TestGrantContext: a non-preemptible grant runs under its Acquire
// context itself; a preemptible one under a child of it, which its
// parent ending and its own Release both cancel.
func TestGrantContext(t *testing.T) {
	s := NewScheduler(Config{Slots: 2, MaxQueueDepth: -1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	plain, err := s.Acquire(ctx, Request{Tier: TierBatch})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Context() != ctx {
		t.Error("a non-preemptible grant's context is not its Acquire context")
	}
	plain.Release()
	if err := plain.Context().Err(); err != nil {
		t.Errorf("Release ended a non-preemptible grant's (the caller's) context: %v", err)
	}

	released, err := s.Acquire(ctx, Request{Tier: TierBatch, Preemptible: true})
	if err != nil {
		t.Fatal(err)
	}
	if released.Context() == ctx || released.Context().Err() != nil {
		t.Fatal("a preemptible grant's context is not a live child of its Acquire context")
	}
	released.Release()
	if err := released.Context().Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("context after Release: %v, want context.Canceled", err)
	}
	if cause := context.Cause(released.Context()); cause != context.Canceled {
		t.Errorf("cause after Release = %v, want context.Canceled, no preemption", cause)
	}

	orphan, err := s.Acquire(ctx, Request{Tier: TierBatch, Preemptible: true})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-orphan.Context().Done()
	orphan.Release()
	if st := s.Stats(); st.Free != 2 || st.Running != 0 {
		t.Errorf("stats = %+v, want both slots free", st)
	}
}

// TestQuota: a tenant's quota caps its concurrent grants even when
// slots are free; other tenants still get the spare capacity.
func TestQuota(t *testing.T) {
	s := NewScheduler(Config{
		Slots:         2,
		MaxQueueDepth: -1,
		Tenants:       []TenantConfig{{Name: "capped", Quota: 1}},
	})
	g1 := mustAcquire(t, s, Request{Tenant: "capped"})

	queued := make(chan *Grant, 1)
	go func() { queued <- mustAcquire(t, s, Request{Tenant: "capped"}) }()
	waitFor(t, "second capped request to queue", func() bool { return s.Stats().Queued == 1 })

	// The free slot is still available to another tenant.
	other := mustAcquire(t, s, Request{Tenant: "other"})
	other.release(0)

	select {
	case <-queued:
		t.Fatal("quota-capped request was granted beyond its quota")
	default:
	}
	g1.release(0)
	(<-queued).release(0)
}

// TestQueueFullShed: beyond the per-tenant depth bound Acquire returns
// *QueueFullError with the tenant's queue view; other tenants keep
// their own bound.
func TestQueueFullShed(t *testing.T) {
	s := NewScheduler(Config{Slots: 1, MaxQueueDepth: 1})
	blocker := mustAcquire(t, s, Request{Tenant: "a"})
	defer blocker.release(0)

	waiter := make(chan *Grant, 1)
	go func() { waiter <- mustAcquire(t, s, Request{Tenant: "a"}) }()
	waitFor(t, "first waiter to queue", func() bool { return s.Stats().Queued == 1 })

	_, err := s.Acquire(context.Background(), Request{Tenant: "a"})
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("third acquire = %v, want *QueueFullError", err)
	}
	if qf.Tenant != "a" || qf.Queued != 1 || qf.Limit != 1 || qf.Position != 2 {
		t.Errorf("QueueFullError = %+v, want tenant a, 1 queued, limit 1, position 2", qf)
	}

	// Tenant b's queue is independent: it may still wait.
	bCtx, bCancel := context.WithCancel(context.Background())
	bErr := make(chan error, 1)
	go func() {
		g, err := s.Acquire(bCtx, Request{Tenant: "b"})
		if g != nil {
			g.release(0)
		}
		bErr <- err
	}()
	waitFor(t, "tenant b to queue", func() bool { return s.Stats().Queued == 2 })
	bCancel()
	if err := <-bErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("tenant b acquire = %v, want context.Canceled", err)
	}

	blocker.release(0)
	(<-waiter).release(0)

	if s.Stats().Tenants[0].Shed != 1 {
		t.Errorf("tenant a shed counter = %d, want 1", s.Stats().Tenants[0].Shed)
	}
}

// TestCancelWhileQueued: a cancelled waiter leaves no queue residue
// and the pool keeps flowing.
func TestCancelWhileQueued(t *testing.T) {
	s := NewScheduler(Config{Slots: 1, MaxQueueDepth: -1})
	blocker := mustAcquire(t, s, Request{})

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		g, err := s.Acquire(ctx, Request{})
		if g != nil {
			g.release(0)
		}
		errCh <- err
	}()
	waitFor(t, "waiter to queue", func() bool { return s.Stats().Queued == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	waitFor(t, "queue to clear", func() bool { return s.Stats().Queued == 0 })

	blocker.release(0)
	g := mustAcquire(t, s, Request{})
	g.release(0)
}

// TestUnknownTenantDefaults: tenants appear on first use with the
// default weight, no quota and no forced tier; the empty name maps to
// "default".
func TestUnknownTenantDefaults(t *testing.T) {
	s := NewScheduler(Config{Slots: 1})
	g := mustAcquire(t, s, Request{})
	if g.tenant.name != "default" {
		t.Errorf("empty tenant billed to %q, want default", g.tenant.name)
	}
	g.release(2.5)

	st := s.Stats()
	if len(st.Tenants) != 1 {
		t.Fatalf("tenants = %+v, want exactly one", st.Tenants)
	}
	ts := st.Tenants[0]
	if ts.Name != "default" || ts.Weight != 1 || ts.Quota != 0 || ts.Granted != 1 || ts.ServedSeconds != 2.5 {
		t.Errorf("default tenant stats = %+v, want weight 1, 1 granted, 2.5 served seconds", ts)
	}
}

// TestTierParseRoundTrip covers the flag-facing tier names.
func TestTierParseRoundTrip(t *testing.T) {
	for _, tier := range []Tier{TierAuto, TierInteractive, TierBatch} {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", tier.String(), got, err, tier)
		}
	}
	if _, err := ParseTier("bogus"); err == nil {
		t.Error("ParseTier(bogus) succeeded, want error")
	}
}

// TestForcedTenantTier: a tenant configured with a tier runs at it
// regardless of what the request asked for.
func TestForcedTenantTier(t *testing.T) {
	s := NewScheduler(Config{
		Slots:         1,
		MaxQueueDepth: -1,
		Tenants:       []TenantConfig{{Name: "scans", Tier: TierBatch}},
	})
	g := mustAcquire(t, s, Request{Tenant: "scans", Tier: TierInteractive})
	if g.tier != TierBatch {
		t.Errorf("forced-tier grant ran at %v, want batch", g.tier)
	}
	g.release(0)
}
