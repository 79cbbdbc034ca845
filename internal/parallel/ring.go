package parallel

import (
	"fmt"

	"mssp/internal/core"
	"mssp/internal/task"
)

// SlotState is a reservation's position in the reserve/check-commit
// protocol. The legal transitions form a straight line with one escape:
//
//	Open ──Close──▶ Closed ──Complete──▶ Done ──PopCommitted──▶ Committed
//	  │               │                    │
//	  └───────────────┴────SquashAll───────┴──▶ Squashed
//
// Committed and Squashed are terminal. Every other transition is a protocol
// violation; the ring methods reject them with an error, which the engine
// treats as fatal (a bug, never a recoverable condition).
type SlotState uint8

const (
	// SlotOpen: the task has reserved its program-order position but its
	// end PC is still unknown (the master has not taken the next fork).
	SlotOpen SlotState = iota
	// SlotClosed: the end PC is fixed (or the slot was declared endless
	// during drain) and the task has been handed to the slave pool.
	SlotClosed
	// SlotDone: the slave's execution result is recorded; the slot is
	// waiting for every older slot to retire.
	SlotDone
	// SlotCommitted: retired in program order (terminal).
	SlotCommitted
	// SlotSquashed: discarded by a squash before retiring (terminal).
	SlotSquashed
)

// String names the state for protocol-violation errors and tests.
func (s SlotState) String() string {
	switch s {
	case SlotOpen:
		return "open"
	case SlotClosed:
		return "closed"
	case SlotDone:
		return "done"
	case SlotCommitted:
		return "committed"
	case SlotSquashed:
		return "squashed"
	}
	return "invalid"
}

// slot is one reservation: a task plus its protocol state. Slots are created
// by the coordinator, travel to exactly one slave worker and back over
// channels (which provides the happens-before edges for T and Ex), and are
// never reused across epochs.
type slot struct {
	core.InFlight
	state SlotState
	// epoch is the squash epoch the slot was reserved in; a result arriving
	// from an older epoch is stale and dropped.
	epoch uint64
	// slave is the worker index that executed the task (valid once Done).
	slave int
}

// ring is the reservation queue of the check-commit protocol: slots in
// program order, oldest first, at most one open slot (the tail), bounded by
// the machine's task buffer. It is plain data owned by the coordinator
// goroutine; all synchronization lives in the engine around it.
type ring struct {
	capacity int
	slots    []*slot
}

func newRing(capacity int) *ring {
	return &ring{capacity: capacity, slots: make([]*slot, 0, capacity)}
}

func (r *ring) Len() int    { return len(r.slots) }
func (r *ring) Full() bool  { return len(r.slots) >= r.capacity }
func (r *ring) Empty() bool { return len(r.slots) == 0 }

// Head returns the oldest reservation, or nil.
func (r *ring) Head() *slot {
	if len(r.slots) == 0 {
		return nil
	}
	return r.slots[0]
}

// Open returns the tail slot if its end is still undetermined, else nil.
func (r *ring) Open() *slot {
	if n := len(r.slots); n > 0 && r.slots[n-1].state == SlotOpen {
		return r.slots[n-1]
	}
	return nil
}

// Reserve appends a new open reservation for the admitted task f. The
// previous tail must have been closed first (the protocol closes task N's end
// with the fork that creates task N+1), and the ring must have capacity.
func (r *ring) Reserve(f core.InFlight, epoch uint64) (*slot, error) {
	if r.Full() {
		return nil, fmt.Errorf("parallel: ring full (%d slots)", r.capacity)
	}
	if s := r.Open(); s != nil {
		return nil, fmt.Errorf("parallel: reserve with open tail (task %d)", s.T.ID)
	}
	s := &slot{InFlight: f, state: SlotOpen, epoch: epoch}
	r.slots = append(r.slots, s)
	return s, nil
}

// Close fixes the open tail's end anchor (hasEnd false declares it endless:
// the drain path lets the last task run to halt or the cap).
func (r *ring) Close(s *slot, end, endCount uint64, hasEnd bool) error {
	if s != r.Open() {
		return fmt.Errorf("parallel: close of non-open slot (task %d, state %v)", s.T.ID, s.state)
	}
	s.T.End = end
	s.T.EndCount = endCount
	s.T.HasEnd = hasEnd
	s.state = SlotClosed
	return nil
}

// Complete marks a closed slot done. The executing worker stored the result
// in s.Ex before sending the slot back (the channel transfer orders the
// write); Complete validates the protocol on the coordinator side.
func (r *ring) Complete(s *slot) error {
	if s.state != SlotClosed {
		return fmt.Errorf("parallel: complete of %v slot (task %d)", s.state, s.T.ID)
	}
	if s.Ex == nil {
		return fmt.Errorf("parallel: complete without result (task %d)", s.T.ID)
	}
	s.state = SlotDone
	return nil
}

// PopCommitted retires the head, which must hold its result: commits happen
// strictly in reservation order, and only after verification.
func (r *ring) PopCommitted() error {
	h := r.Head()
	if h == nil {
		return fmt.Errorf("parallel: commit on empty ring")
	}
	if h.state != SlotDone {
		return fmt.Errorf("parallel: commit of %v head (task %d)", h.state, h.T.ID)
	}
	h.state = SlotCommitted
	r.slots = r.slots[1:]
	return nil
}

// CommitCycle drives the reservation protocol end to end n times on a
// scratch ring — reserve, close, complete, pop — and returns the number of
// slots committed (n unless the protocol errors, which would be a bug).
// It is the inner loop behind the parallel/commit_ns benchmark entry:
// cmd/msspbench supplies the timing, since wall-clock reads are banned from
// engine code (goanalysis GA001).
func CommitCycle(n int) int {
	r := newRing(4)
	f := core.InFlight{T: &task.Task{}}
	ex := &task.Exec{}
	committed := 0
	for i := 0; i < n; i++ {
		s, err := r.Reserve(f, 0)
		if err != nil {
			return committed
		}
		if err := r.Close(s, 0, 0, true); err != nil {
			return committed
		}
		s.Ex = ex
		if err := r.Complete(s); err != nil {
			return committed
		}
		if err := r.PopCommitted(); err != nil {
			return committed
		}
		committed++
	}
	return committed
}

// SquashAll discards every reservation (a squash kills the whole speculative
// pipeline) and returns how many slots were dropped.
func (r *ring) SquashAll() int {
	n := len(r.slots)
	for _, s := range r.slots {
		s.state = SlotSquashed
	}
	r.slots = r.slots[:0]
	return n
}
