package sim

import (
	"testing"

	"github.com/flexer-sched/flexer/internal/tile"
)

// BenchmarkTimelineTransfer measures appending DMA transfers to a
// timeline — the hot path of every schedule construction.
func BenchmarkTimelineTransfer(b *testing.B) {
	tl := New(4)
	id := tile.ID{Kind: tile.In, A: 1, B: 2, C: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tl.Transfer(id, Load, 4096, 64, 0)
	}
}

// BenchmarkTimelineIssue measures issuing compute ops round-robin
// across cores, including the least-busy scan.
func BenchmarkTimelineIssue(b *testing.B) {
	tl := New(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		npu := tl.leastBusyNPU()
		tl.Issue(i, npu, 0, 128)
	}
}

// BenchmarkTimelineMakespan measures the summary scan over a
// moderately sized schedule.
func BenchmarkTimelineMakespan(b *testing.B) {
	tl := New(4)
	for i := 0; i < 1024; i++ {
		tl.Issue(i, i%4, 0, 128)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tl.Makespan()
	}
}
