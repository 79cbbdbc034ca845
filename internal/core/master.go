package core

import (
	"mssp/internal/cpu"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/task"
)

// master is the fast-path processor: it executes the distilled program over
// its own speculative memory image and produces checkpoints at fork points.
// Nothing the master does can touch architected state.
type master struct {
	alive bool

	regs [isa.NumRegs]uint64
	pc   uint64
	// memory is the master's speculative image: distilled code overlaid on
	// the architected memory as of the last reseed.
	memory *mem.Memory
	// diff logs every master store since the last reseed; snapshots of it
	// become checkpoint memory diffs.
	diff *mem.Overlay
	// diffAtFork is diff.Len() at the previous fork, for traffic metrics.
	diffAtFork int

	// code is this reseed's predecoded-distilled-program runner (a nil-table
	// runner when the fast path is disabled). Reseed recreates it because it
	// also re-copies the distilled code into the master's memory image,
	// restoring the table's validity even if the previous master life
	// overwrote distilled code.
	code *cpu.Code

	clock float64
	gate  ForkGate
}

// masterEnv adapts the master to cpu.Env, teeing stores into the write log.
type masterEnv struct{ m *master }

func (e masterEnv) ReadReg(r int) uint64 {
	if r == isa.RegZero {
		return 0
	}
	return e.m.regs[r]
}

func (e masterEnv) WriteReg(r int, v uint64) {
	if r != isa.RegZero {
		e.m.regs[r] = v
	}
}

func (e masterEnv) ReadMem(addr uint64) uint64 { return e.m.memory.Read(addr) }

func (e masterEnv) WriteMem(addr, v uint64) {
	e.m.memory.Write(addr, v)
	e.m.diff.Set(addr, v)
}

func (e masterEnv) Fetch(addr uint64) uint64 { return e.m.memory.Read(addr) }
func (e masterEnv) PC() uint64               { return e.m.pc }
func (e masterEnv) SetPC(pc uint64)          { e.m.pc = pc }

var _ cpu.Env = masterEnv{}

// masterStop says why runToFork returned without a fork.
type masterStop int

const (
	masterForked masterStop = iota
	masterHalted
	masterLost
)

// runToFork advances the master until it takes a fork, halts, or loses its
// way (fault, unmapped indirect target, or run-ahead cap). It returns the
// fork's anchor (an original-program PC) and the number of times that
// anchor was crossed since the last taken fork when stop == masterForked.
func (m *Machine) runToFork() (anchor uint64, count uint64, stop masterStop) {
	ms := &m.master
	env := masterEnv{ms}
	for {
		in, err := ms.code.Step(env)
		if err != nil {
			ms.alive = false
			m.Metrics.MasterLost++
			return 0, 0, masterLost
		}
		m.Metrics.MasterInsts++
		ms.clock += m.Cfg.MasterCPI
		ms.gate.Retire(1)

		switch in.Op {
		case isa.OpHalt:
			ms.alive = false
			m.Metrics.MasterHalts++
			return 0, 0, masterHalted

		case isa.OpFork:
			a := uint64(in.Imm)
			if taken, c := ms.gate.Fork(a); taken {
				return a, c, masterForked
			}
			m.Metrics.ForksSkipped++

		case isa.OpJalr:
			pc, ok := ms.gate.Jump(ms.pc)
			if !ok {
				ms.alive = false
				m.Metrics.MasterLost++
				return 0, 0, masterLost
			}
			ms.pc = pc
		}

		if ms.gate.Overrun() {
			ms.alive = false
			m.Metrics.MasterLost++
			return 0, 0, masterLost
		}
	}
}

// reseed restarts the master from architected state at time now. The
// architected PC must translate into the distilled program; if it does not,
// the master stays dead and the main loop continues in fallback mode.
func (m *Machine) reseed(now float64) {
	dpc, ok := m.Dist.OrigToDist[m.Arch.PC]
	if !ok {
		m.master.alive = false
		return
	}
	ms := &m.master
	ms.regs = m.Arch.Regs
	ms.memory = m.Arch.Mem.Snapshot()
	ms.memory.CopyWords(m.Dist.Prog.Code.Base, m.Dist.Prog.Code.Words)
	ms.diff = mem.NewOverlay()
	ms.diffAtFork = 0
	ms.pc = dpc
	ms.code = cpu.NewCode(m.distCode)
	ms.clock = now
	ms.alive = true
	ms.gate = NewForkGate(&m.Cfg, m.Dist)
}

// checkpoint captures the master's current prediction of machine state. The
// memory diff is an O(1) snapshot of the master's write log, private to the
// task it is handed to.
func (m *Machine) checkpoint() task.Checkpoint {
	ms := &m.master
	ck := task.Checkpoint{
		Regs:         ms.regs,
		MemDiff:      ms.diff.Snapshot(),
		NewDiffWords: ms.diff.Len() - ms.diffAtFork,
	}
	ms.diffAtFork = ms.diff.Len()
	return ck
}
