package chaos

import (
	"mssp/internal/core"
	"mssp/internal/isa"
	"mssp/internal/task"
)

// FaultPlan is a seeded, fully deterministic fault-injection schedule: for
// every (seed, intensity) pair, whether and how task N is faulted is a pure
// function of N, so any failure a faulted run finds replays exactly from
// its seed. Fault sites are drawn independently per task by hashing
// (seed, taskID, site) — no shared stream, so injection decisions do not
// depend on the order the machine consults them in.
type FaultPlan struct {
	// Seed keys the per-task hash.
	Seed uint64
	// Intensity in [0, 1] scales every fault site's firing probability;
	// zero disables the plan entirely.
	Intensity float64
}

// Fault sites, used as hash discriminators.
const (
	siteStart = iota + 1
	siteRegs
	siteMem
	siteDelay
	siteDrop
	siteForce
	siteJitter
	siteParam // extra draws for fault parameters (registers, values)
)

// Per-site base firing probabilities at Intensity 1. Corruption sites are
// the interesting ones; drop/force are kept rarer because each one squashes
// the whole pipeline and, in excess, degenerates every run into sequential
// fallback.
const (
	pStart  = 0.06
	pRegs   = 0.12
	pMem    = 0.10
	pDelay  = 0.15
	pDrop   = 0.04
	pForce  = 0.03
	pJitter = 0.15
)

// hash is splitmix64 over the plan seed, the task id and a site
// discriminator.
func (p *FaultPlan) hash(taskID uint64, site uint64) uint64 {
	x := p.Seed ^ taskID*0x9e3779b97f4a7c15 ^ site*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fires reports whether the site fires for this task at probability
// prob*Intensity.
func (p *FaultPlan) fires(taskID uint64, site uint64, prob float64) bool {
	if p.Intensity <= 0 {
		return false
	}
	const den = 1 << 52
	return float64(p.hash(taskID, site)%den)/den < prob*p.Intensity
}

// Injection renders the plan as the machine's fault-injection hooks.
// A nil or zero-intensity plan yields nil (no injection).
func (p *FaultPlan) Injection() *core.FaultInjection {
	if p == nil || p.Intensity <= 0 {
		return nil
	}
	return &core.FaultInjection{
		CorruptStart: func(taskID, start uint64) uint64 {
			if !p.fires(taskID, siteStart, pStart) {
				return start
			}
			// A small PC displacement: plausible-looking but wrong, the
			// shape a corrupted FORK immediate takes.
			return start + 1 + p.hash(taskID, siteStart|siteParam<<8)%7
		},
		CorruptCheckpoint: func(taskID uint64, ck *task.Checkpoint) {
			if p.fires(taskID, siteRegs, pRegs) {
				h := p.hash(taskID, siteRegs|siteParam<<8)
				r := 1 + int(h%(isa.NumRegs-1))
				if h&0x100 != 0 {
					// Poison the link register specifically: the next
					// return speculatively jumps into the poison segment
					// and the slave faults.
					r = isa.RegRA
					ck.Regs[r] = genPoisonBase + h%poisonWords
				} else {
					ck.Regs[r] = h >> 9
				}
			}
			if p.fires(taskID, siteMem, pMem) {
				h := p.hash(taskID, siteMem|siteParam<<8)
				ck.SetMem(genDataBase+h%ArrWords, h>>8)
			}
		},
		SlaveDelay: func(taskID uint64) float64 {
			if !p.fires(taskID, siteDelay, pDelay) {
				return 0
			}
			return float64(1 + p.hash(taskID, siteDelay|siteParam<<8)%2000)
		},
		DropCompletion: func(taskID uint64) bool {
			return p.fires(taskID, siteDrop, pDrop)
		},
		ForceFallback: func(taskID uint64) bool {
			return p.fires(taskID, siteForce, pForce)
		},
		VerifyJitter: func(taskID uint64) float64 {
			if !p.fires(taskID, siteJitter, pJitter) {
				return 0
			}
			return float64(1 + p.hash(taskID, siteJitter|siteParam<<8)%500)
		},
	}
}
