package parallel

import (
	"strings"
	"testing"

	"mssp/internal/task"
)

// reserve reserves the ring's next slot, in epoch, for task id.
func reserve(r *ring, id, epoch uint64) (*slot, error) {
	s, err := r.Reserve(epoch)
	if err == nil {
		s.T = task.Task{ID: id, Start: id * 10}
	}
	return s, err
}

func done(r *ring, s *slot, t *testing.T) {
	t.Helper()
	s.Ex = &task.Exec{}
	if err := r.Complete(s); err != nil {
		t.Fatalf("complete: %v", err)
	}
}

// TestRingProtocol drives the reserve/check-commit state machine through
// every legal transition and every class of illegal one, table-style: each
// step is an operation plus the error substring it must produce ("" = must
// succeed).
func TestRingProtocol(t *testing.T) {
	type step struct {
		op      string // reserve | close | complete | commit | squash
		arg     int    // slot index for close/complete (as reserved order)
		wantErr string
	}
	cases := []struct {
		name     string
		capacity int
		steps    []step
	}{
		{
			name:     "happy-path-single",
			capacity: 2,
			steps: []step{
				{op: "reserve"},
				{op: "close", arg: 0},
				{op: "complete", arg: 0},
				{op: "commit"},
			},
		},
		{
			name:     "pipelined-pair-commits-in-order",
			capacity: 2,
			steps: []step{
				{op: "reserve"},
				{op: "close", arg: 0},
				{op: "reserve"},
				{op: "close", arg: 1},
				// Out-of-order completion is fine; commits stay ordered.
				{op: "complete", arg: 1},
				{op: "commit", wantErr: "commit of closed head"},
				{op: "complete", arg: 0},
				{op: "commit"},
				{op: "commit"},
			},
		},
		{
			name:     "reserve-needs-closed-tail",
			capacity: 4,
			steps: []step{
				{op: "reserve"},
				{op: "reserve", wantErr: "open tail"},
			},
		},
		{
			name:     "reserve-needs-capacity",
			capacity: 1,
			steps: []step{
				{op: "reserve"},
				{op: "close", arg: 0},
				{op: "reserve", wantErr: "ring full"},
			},
		},
		{
			name:     "close-is-once",
			capacity: 2,
			steps: []step{
				{op: "reserve"},
				{op: "close", arg: 0},
				{op: "close", arg: 0, wantErr: "close of non-open"},
			},
		},
		{
			name:     "complete-needs-closed",
			capacity: 2,
			steps: []step{
				{op: "reserve"},
				{op: "complete", arg: 0, wantErr: "complete of open"},
			},
		},
		{
			name:     "complete-is-once",
			capacity: 2,
			steps: []step{
				{op: "reserve"},
				{op: "close", arg: 0},
				{op: "complete", arg: 0},
				{op: "complete", arg: 0, wantErr: "complete of done"},
			},
		},
		{
			name:     "commit-needs-result",
			capacity: 2,
			steps: []step{
				{op: "reserve"},
				{op: "commit", wantErr: "commit of open head"},
				{op: "close", arg: 0},
				{op: "commit", wantErr: "commit of closed head"},
			},
		},
		{
			name:     "commit-needs-head",
			capacity: 2,
			steps: []step{
				{op: "commit", wantErr: "empty ring"},
			},
		},
		{
			name:     "squash-clears-everything",
			capacity: 3,
			steps: []step{
				{op: "reserve"},
				{op: "close", arg: 0},
				{op: "complete", arg: 0},
				{op: "reserve"},
				{op: "squash"},
				{op: "commit", wantErr: "empty ring"},
				// The ring is reusable after a squash.
				{op: "reserve"},
				{op: "close", arg: 2},
				{op: "complete", arg: 2},
				{op: "commit"},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRing(tc.capacity)
			var reserved []*slot
			check := func(i int, err error, want string) {
				t.Helper()
				switch {
				case want == "" && err != nil:
					t.Fatalf("step %d: unexpected error %v", i, err)
				case want != "" && err == nil:
					t.Fatalf("step %d: want error containing %q, got nil", i, want)
				case want != "" && !strings.Contains(err.Error(), want):
					t.Fatalf("step %d: error %v does not contain %q", i, err, want)
				}
			}
			for i, s := range tc.steps {
				switch s.op {
				case "reserve":
					sl, err := reserve(r, uint64(len(reserved)), 0)
					check(i, err, s.wantErr)
					if err == nil {
						reserved = append(reserved, sl)
					}
				case "close":
					check(i, r.Close(reserved[s.arg], 99, 1, true), s.wantErr)
				case "complete":
					sl := reserved[s.arg]
					if sl.Ex == nil {
						sl.Ex = &task.Exec{}
					}
					check(i, r.Complete(sl), s.wantErr)
				case "commit":
					check(i, r.PopCommitted(), s.wantErr)
				case "squash":
					r.SquashAll()
				default:
					t.Fatalf("bad op %q", s.op)
				}
			}
		})
	}
}

func TestRingCompleteRequiresResult(t *testing.T) {
	r := newRing(2)
	s, err := reserve(r, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(s, 1, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := r.Complete(s); err == nil || !strings.Contains(err.Error(), "without result") {
		t.Fatalf("complete with nil ex: err = %v, want 'without result'", err)
	}
}

func TestRingSquashMarksSlots(t *testing.T) {
	r := newRing(4)
	a, _ := reserve(r, 0, 0)
	if err := r.Close(a, 1, 1, true); err != nil {
		t.Fatal(err)
	}
	done(r, a, t)
	b, _ := reserve(r, 1, 0)
	if n := r.SquashAll(); n != 2 {
		t.Errorf("SquashAll = %d, want 2", n)
	}
	if a.state != SlotSquashed || b.state != SlotSquashed {
		t.Errorf("states after squash: %v, %v, want squashed", a.state, b.state)
	}
	if !r.Empty() {
		t.Error("ring not empty after squash")
	}
}

func TestRingAccessors(t *testing.T) {
	r := newRing(2)
	if r.Head() != nil || r.Open() != nil || !r.Empty() || r.Full() || r.Len() != 0 {
		t.Fatal("fresh ring accessors wrong")
	}
	a, _ := reserve(r, 0, 7)
	if a.epoch != 7 {
		t.Errorf("epoch = %d, want 7", a.epoch)
	}
	if r.Head() != a || r.Open() != a || r.Len() != 1 {
		t.Fatal("single-slot accessors wrong")
	}
	if err := r.Close(a, 5, 2, true); err != nil {
		t.Fatal(err)
	}
	if a.T.End != 5 || a.T.EndCount != 2 || !a.T.HasEnd {
		t.Errorf("close did not fix the task end: %+v", a.T)
	}
	if r.Open() != nil {
		t.Error("closed tail still reported open")
	}
	b, _ := reserve(r, 1, 7)
	if !r.Full() || r.Head() != a || r.Open() != b {
		t.Fatal("two-slot accessors wrong")
	}
}

func TestSlotStateString(t *testing.T) {
	want := map[SlotState]string{
		SlotOpen: "open", SlotClosed: "closed", SlotDone: "done",
		SlotCommitted: "committed", SlotSquashed: "squashed",
		SlotState(99): "invalid",
	}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), s)
		}
	}
}
