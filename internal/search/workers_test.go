package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flexer-sched/flexer/internal/layer"
	"github.com/flexer-sched/flexer/internal/nets"
)

// workersNet has two layers of one shape among four, so a network search
// over it both searches and looks a shape up again.
var workersNet = nets.Network{Name: "tiny", Layers: []layer.Conv{
	layer.NewConv("a1", 8, 8, 4, 4, 3),
	layer.NewConv("b", 8, 8, 4, 8, 3),
	layer.NewConv("a2", 8, 8, 4, 4, 3),
	layer.NewConv("c", 14, 14, 8, 8, 3),
}}

// settledGoroutines returns the goroutine count once goroutines that
// earlier tests left winding down have exited: two reads 5 ms apart
// agree.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestSearchPanicReachesCaller: a search whose Progress panics on a later
// call — inside the per-tiling work, which above one worker may run on a
// helper — panics on the caller's goroutine with the callback's value,
// after the other workers have stopped, for a layer and a network search
// at one worker and at four.
func TestSearchPanicReachesCaller(t *testing.T) {
	type boom struct{ call int64 }
	for _, workers := range []int{1, 4} {
		for _, network := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/network=%v", workers, network)
			opts := quickOpts(t, "arch1")
			opts.Workers = workers
			var calls atomic.Int64
			opts.Progress = func(ProgressEvent) {
				if n := calls.Add(1); n == 3 {
					panic(boom{n})
				}
			}
			var got any
			func() {
				defer func() { got = recover() }()
				if network {
					_, _ = SearchNetwork(workersNet, opts)
				} else {
					_, _ = SearchLayer(layer.NewConv("l", 28, 28, 64, 96, 3), opts)
				}
			}()
			if got != (boom{3}) {
				t.Errorf("%s: the caller recovered %v, want the progress callback's panic value", name, got)
			}
		}
	}
}

// TestSingleWorkerStartsNoGoroutine: at one worker a layer search and a
// network search run on the caller alone — the goroutine count inside
// every progress callback is the count before the call.
func TestSingleWorkerStartsNoGoroutine(t *testing.T) {
	for _, network := range []bool{false, true} {
		opts := quickOpts(t, "arch1")
		opts.Workers = 1
		before := settledGoroutines()
		events := 0
		opts.Progress = func(ProgressEvent) {
			events++
			if n := runtime.NumGoroutine(); n != before {
				t.Errorf("network=%v: %d goroutines during the search, %d before it", network, n, before)
			}
		}
		var err error
		if network {
			_, err = SearchNetwork(workersNet, opts)
		} else {
			_, err = SearchLayer(layer.NewConv("l", 28, 28, 64, 96, 3), opts)
		}
		if err != nil || events == 0 {
			t.Fatalf("network=%v: %d progress events, err %v", network, events, err)
		}
	}
}

// TestCancelledNetworkSearchLeavesNoGoroutine: a four-worker network
// search cancelled mid-way, at its tenth progress event, returns the
// context's error, and every goroutine it started has exited.
func TestCancelledNetworkSearchLeavesNoGoroutine(t *testing.T) {
	opts := quickOpts(t, "arch1")
	opts.Workers = 4
	before := settledGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events atomic.Int64
	opts.Progress = func(ProgressEvent) {
		if events.Add(1) == 10 {
			cancel()
		}
	}
	if _, err := SearchNetworkCtx(ctx, mustNetwork(t, "vgg16", 8), opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}
	if n := settledGoroutines(); n > before {
		t.Errorf("%d goroutines after the cancelled search, %d before it", n, before)
	}
}

// mustNetwork returns a catalog network at a spatial scale.
func mustNetwork(t testing.TB, name string, scale int) nets.Network {
	t.Helper()
	n, err := nets.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return n.Scale(scale)
}
