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
// Committed and Squashed end the reservation; its slot is then recycled
// and starts its next reservation at Open. Every other transition is a
// protocol violation; the ring methods reject them with an error, which the
// engine treats as fatal (a bug, never a recoverable condition).
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
	// SlotCommitted: retired in program order.
	SlotCommitted
	// SlotSquashed: discarded by a squash before retiring.
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

// slot is one reservation: a task plus its protocol state. A slot owns its
// task by value, and the coordinator reuses it from reservation to
// reservation: it travels to at most one slave worker and back over
// channels (which provides the happens-before edges for T and Ex), and
// returns to the ring's free list at one of three recycle points — its
// commit, the squash that discards it while it is not at a worker, or the
// arrival of its stale result when it is.
type slot struct {
	core.InFlight
	state SlotState
	// epoch is the squash epoch the slot was reserved in; a result arriving
	// from an older epoch is stale and dropped.
	epoch uint64
	// slave is the worker index that executed the task (valid once Done).
	slave int
	// atWorker reports that the slot was dispatched and its result has not
	// come back, and free that it is on the free list. Workers never touch
	// either.
	atWorker, free bool
}

// ring is the reservation queue of the check-commit protocol: slots in
// program order, oldest first, at most one open slot (the tail), bounded by
// the machine's task buffer. It is plain data owned by the coordinator
// goroutine; all synchronization lives in the engine around it.
type ring struct {
	// slots is a circular buffer of capacity entries holding the n
	// reservations from head on.
	slots   []*slot
	head, n int
	// free holds the slots no reservation or worker holds. It grows only
	// while slots from squashed epochs are still at workers.
	free []*slot
}

func newRing(capacity int) *ring {
	return &ring{slots: make([]*slot, capacity)}
}

func (r *ring) Len() int    { return r.n }
func (r *ring) Full() bool  { return r.n >= len(r.slots) }
func (r *ring) Empty() bool { return r.n == 0 }

// at returns the i-th oldest reservation.
func (r *ring) at(i int) *slot { return r.slots[(r.head+i)%len(r.slots)] }

// Head returns the oldest reservation, or nil.
func (r *ring) Head() *slot {
	if r.n == 0 {
		return nil
	}
	return r.slots[r.head]
}

// Open returns the tail slot if its end is still undetermined, else nil.
func (r *ring) Open() *slot {
	if r.n > 0 {
		if s := r.at(r.n - 1); s.state == SlotOpen {
			return s
		}
	}
	return nil
}

// Reserve appends a new open reservation in squash epoch epoch, on a slot
// from the free list; the caller admits the task into its T. The previous
// tail must have been closed first (the protocol closes task N's end with
// the fork that creates task N+1), and the ring must have capacity.
func (r *ring) Reserve(epoch uint64) (*slot, error) {
	if r.Full() {
		return nil, fmt.Errorf("parallel: ring full (%d slots)", len(r.slots))
	}
	if s := r.Open(); s != nil {
		return nil, fmt.Errorf("parallel: reserve with open tail (task %d)", s.T.ID)
	}
	s := r.take()
	s.state, s.epoch, s.Ex = SlotOpen, epoch, nil
	r.slots[(r.head+r.n)%len(r.slots)] = s
	r.n++
	return s, nil
}

// take returns a slot from the free list, or a new one when it is empty.
// A listed slot that is still at a worker panics: its worker would share
// the task with the new reservation.
func (r *ring) take() *slot {
	n := len(r.free)
	if n == 0 {
		return new(slot)
	}
	s := r.free[n-1]
	r.free = r.free[:n-1]
	if s.atWorker {
		panic("parallel: slot reserved while still at a worker")
	}
	s.free = false
	return s
}

// recycle returns a retired slot to the free list. Like task.Pool.Release
// it panics on the slot's second recycle, and on a slot still at a worker:
// either would let two reservations share one task.
func (r *ring) recycle(s *slot) {
	if s.free {
		panic("parallel: slot recycled twice")
	}
	if s.atWorker {
		panic("parallel: slot recycled while at a worker")
	}
	s.free = true
	r.free = append(r.free, s)
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
	r.head = (r.head + 1) % len(r.slots)
	r.n--
	return nil
}

// CommitCycle drives the reservation protocol end to end n times on a
// scratch ring — reserve, close, complete, pop, recycle — and returns the
// number of slots committed (n unless the protocol errors, which would be a
// bug). It is the inner loop behind the parallel/commit_ns benchmark entry:
// cmd/msspbench supplies the timing, since wall-clock reads are banned from
// engine code (goanalysis GA001). Only its setup allocates: every cycle
// reuses one slot.
func CommitCycle(n int) int {
	r := newRing(4)
	ex := &task.Exec{}
	committed := 0
	for i := 0; i < n; i++ {
		s, err := r.Reserve(0)
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
		r.recycle(s)
		committed++
	}
	return committed
}

// SquashAll discards every reservation (a squash kills the whole speculative
// pipeline) and returns how many slots were dropped. It recycles the slots
// not at a worker; each of the others is recycled when its stale result
// arrives.
func (r *ring) SquashAll() int {
	n := r.n
	for i := 0; i < n; i++ {
		s := r.at(i)
		s.state = SlotSquashed
		if !s.atWorker {
			r.recycle(s)
		}
	}
	r.head, r.n = 0, 0
	return n
}
