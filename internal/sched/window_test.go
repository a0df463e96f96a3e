package sched

import (
	"cmp"
	"slices"
	"testing"

	"github.com/flexer-sched/flexer/internal/tile"
)

// onChip is what the window ranks an op by: the bytes of its input and
// weight tiles, and of its output tile when it reads a partial sum, that
// the scratchpad holds — none under a hint, which ranks by rank alone.
func onChip(e *engine, op int) int64 {
	if e.cfg.Hint != nil {
		return 0
	}
	o := &e.gr.Ops[op]
	ids := []tile.ID{o.In, o.Wt}
	if o.ReadsPsum {
		ids = append(ids, o.Out)
	}
	var bytes int64
	for _, id := range ids {
		if e.mem.Has(id) {
			bytes += e.gr.Size(id)
		}
	}
	return bytes
}

// TestWindowIsSortedPrefix: at every step of the out-of-order runs the
// walk tests draw, hinted and unhinted, the window is the first
// MaxReadyWindow ops of the ready queue stably sorted by bytes on-chip,
// most first, then by rank — for windows shorter than the queue, as
// long and longer — and selecting it leaves the queue's order alone. An
// unhinted run stays marked as repeating the op-order hint exactly while
// each window is the one that hint forms.
func TestWindowIsSortedPrefix(t *testing.T) {
	draws := 90
	if testing.Short() {
		draws = 25
	}
	var hinted, shorter, whole int
	for _, c := range ruleCases(t, draws) {
		if c.cfg.Hint != nil {
			hinted++
		}
		e := newTestEngine(t, c.gr, c.cfg)
		window := e.cfg.MaxReadyWindow
		for e.nDone < len(c.gr.Ops) {
			e.mem.UnpinAll()
			queue := slices.Clone(e.ready)
			want := slices.Clone(queue)
			slices.SortStableFunc(want, func(a, b int) int {
				return cmp.Or(cmp.Compare(onChip(e, b), onChip(e, a)), cmp.Compare(e.rank[a], e.rank[b]))
			})
			opOrder := slices.Clone(queue) // sorted: the windows of the op-order hint
			slices.Sort(opOrder)
			n := len(queue)
			for _, k := range []int{window, n - 1, n, n + 1} {
				if k < 1 {
					continue
				}
				e.cfg.MaxReadyWindow = k
				same := e.opOrderSame
				got := e.selectWindow()
				if !slices.Equal(got, want[:min(k, n)]) {
					t.Fatalf("%s: window of %d from %v is %v, want %v", c.name, k, queue, got, want[:min(k, n)])
				}
				if stays := same && slices.Equal(got, opOrder[:min(k, n)]); e.opOrderSame != stays {
					t.Fatalf("%s: window %v of %d from %v left opOrderSame %v, want %v", c.name, got, k, queue, e.opOrderSame, stays)
				}
				e.opOrderSame = same
				if !slices.Equal(e.ready, queue) {
					t.Fatalf("%s: selecting a window of %d reordered the ready queue %v to %v", c.name, k, queue, e.ready)
				}
				if k < n {
					shorter++
				} else {
					whole++
				}
			}
			e.cfg.MaxReadyWindow = window
			if err := e.step(); err == errNoProgress {
				break
			} else if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
	if hinted == 0 || shorter == 0 || whole == 0 {
		t.Errorf("the draw missed one of: hinted runs (%d), windows shorter than the queue (%d), windows holding it whole (%d)", hinted, shorter, whole)
	}
}
