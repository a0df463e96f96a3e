package spm

import (
	"reflect"
	"testing"

	"github.com/flexer-sched/flexer/internal/tile"
)

// FuzzAllocator drives the scratchpad with an operation stream decoded
// from fuzz input bytes: every byte pair (op, arg) performs one
// allocator action. The representation invariants must hold after each
// step under every policy, a rollback must restore everything
// observable at its checkpoint — checkpoints nest as deep as the
// stream opens them, up to 8 — and — the stream drives a twin — a
// bound and an interned scratchpad must agree on every eviction and
// every block. Run with `go test -fuzz=FuzzAllocator`
// for continuous fuzzing; the seed corpus runs in normal test mode.
func FuzzAllocator(f *testing.F) {
	f.Add([]byte{0, 10, 1, 20, 2, 0, 0, 200, 3, 1})
	f.Add([]byte{0, 255, 0, 254, 0, 253, 4, 0, 0, 252})
	f.Add([]byte{0, 1, 5, 0, 0, 2, 5, 1, 0, 3})
	f.Add([]byte{0, 200, 0, 201, 2, 0, 6, 0, 0, 202, 0, 203, 1, 200, 4, 201, 7, 0, 6, 0, 0, 90, 7, 0})
	f.Add([]byte{0, 200, 6, 0, 0, 201, 6, 0, 2, 0, 0, 90, 6, 0, 1, 200, 7, 0, 6, 0, 0, 91, 4, 201, 7, 0, 7, 0, 0, 92, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, policy := range []Policy{PolicyFlexer, PolicyFirstFit, PolicySmallestFirst} {
			s := newTwin(t, 4096, policy)
			uses := make(map[tile.ID]int)
			ru := usesOf(uses)
			var saved []*observed // state at each open checkpoint, innermost last
			for i := 0; i+1 < len(data); i += 2 {
				op, arg := data[i], data[i+1]
				id := mkID(int(arg) % 24)
				switch op % 8 {
				case 0:
					size := int64(arg)*17 + 1
					uses[id] = int(arg) % 4
					s.Allocate(id, size, ru)
				case 1:
					s.Evict(id, ru)
				case 2:
					s.UnpinAll()
				case 3:
					s.Pin(id)
				case 4:
					s.SetDirty(id, arg%2 == 0)
				case 5:
					s, saved = s.Clone(), nil // a clone carries no checkpoint
				case 6:
					if len(saved) < 8 {
						s.Checkpoint()
						saved = append(saved, observe(s, 24))
					}
				case 7:
					if d := len(saved) - 1; d >= 0 {
						s.Rollback()
						if got := observe(s, 24); !reflect.DeepEqual(got, saved[d]) {
							t.Fatalf("policy %v step %d: rollback to depth %d restored\n%+v\nwant\n%+v", policy, i/2, d, got, saved[d])
						}
						saved = saved[:d]
					}
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("policy %v step %d op %d: %v", policy, i/2, op%8, err)
				}
			}
		}
	})
}
