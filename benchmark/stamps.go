package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"mssp/internal/core"
)

// Stamp kinds: the lifecycle transitions the stamp pass times, plus the
// start of an engine run (task IDs restart with each run).
const (
	kindRun uint8 = iota
	kindFork
	kindVerify
	kindCommit
	kindSquash
	kindFallbackExit
	kindOther
)

// stamp is one wall-stamped lifecycle event.
type stamp struct {
	at    time.Duration // since stamps.base
	task  uint64
	steps uint64
	kind  uint8
}

// stamps records lifecycle events with wall-clock times. The hooks only
// append to a slice the benchmark reuses between samples; analysis happens
// after the sample, in lifecycle.add.
type stamps struct {
	base   time.Time
	buf    []stamp
	wasted uint64 // instructions executed by squashed tasks
}

// attach chains the stamp hooks onto cfg's lifecycle and squash observers
// and marks the start of a new engine run.
func (s *stamps) attach(cfg *core.Config) {
	s.buf = append(s.buf, stamp{at: time.Since(s.base), kind: kindRun})
	prevL, prevS := cfg.OnLifecycle, cfg.OnSquash
	cfg.OnLifecycle = func(ev core.LifecycleEvent) {
		if prevL != nil {
			prevL(ev)
		}
		s.buf = append(s.buf, stamp{at: time.Since(s.base), task: ev.TaskID, steps: ev.Steps, kind: kindOf(ev.Kind)})
	}
	cfg.OnSquash = func(ev core.SquashEvent) {
		if prevS != nil {
			prevS(ev)
		}
		s.wasted += ev.Steps
	}
}

func kindOf(k string) uint8 {
	switch k {
	case core.LifecycleFork:
		return kindFork
	case core.LifecycleVerify:
		return kindVerify
	case core.LifecycleCommit:
		return kindCommit
	case core.LifecycleSquash:
		return kindSquash
	case core.LifecycleFallbackExit:
		return kindFallbackExit
	}
	return kindOther
}

// lifecycle accumulates what the stamp pass observed, over every stamped
// sample of a run.
type lifecycle struct {
	forkToVerify, verifyToRetire, squashToFork []float64 // µs
	verifies, commits                          uint64
	committed, fallback, wasted                uint64 // instructions
}

// add folds the stamped events in and empties s for the next sample.
func (l *lifecycle) add(s *stamps) {
	fork := map[uint64]time.Duration{}
	verify := map[uint64]time.Duration{}
	var squashAt time.Duration
	squashed := false
	for _, st := range s.buf {
		switch st.kind {
		case kindRun:
			clear(fork)
			clear(verify)
			squashed = false
		case kindFork:
			fork[st.task] = st.at
			if squashed {
				l.squashToFork = append(l.squashToFork, us(st.at-squashAt))
				squashed = false
			}
		case kindVerify:
			l.verifies++
			verify[st.task] = st.at
			if f, ok := fork[st.task]; ok {
				l.forkToVerify = append(l.forkToVerify, us(st.at-f))
			}
		case kindCommit, kindSquash:
			if v, ok := verify[st.task]; ok {
				l.verifyToRetire = append(l.verifyToRetire, us(st.at-v))
			}
			if st.kind == kindCommit {
				l.commits++
				l.committed += st.steps
			} else {
				squashAt, squashed = st.at, true
			}
		case kindFallbackExit:
			l.committed += st.steps
			l.fallback += st.steps
		}
	}
	l.wasted += s.wasted
	s.buf, s.wasted = s.buf[:0], 0
}

// Go runtime metrics the traced run reads around every stamped sample.
var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

// runtimeSnap is one reading of the runtime metrics plus process CPU time.
type runtimeSnap struct {
	gcCPU, totalCPU, mutexWait float64
	sched                      *metrics.Float64Histogram
	procCPU                    time.Duration
	wall                       time.Time
}

func readRuntime() runtimeSnap {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return runtimeSnap{
		gcCPU:     ss[0].Value.Float64(),
		totalCPU:  ss[1].Value.Float64(),
		mutexWait: ss[2].Value.Float64(),
		sched:     ss[3].Value.Float64Histogram(),
		procCPU:   cpuTime(),
		wall:      time.Now(),
	}
}

// runtimeDelta accumulates runtime-metric differences across stamped
// samples.
type runtimeDelta struct {
	gcCPU, totalCPU, mutexWait float64
	procCPU, wall              time.Duration
	schedCounts                []uint64
	schedBuckets               []float64
	samples                    int
}

func (r *runtimeDelta) add(a, b runtimeSnap) {
	r.gcCPU += b.gcCPU - a.gcCPU
	r.totalCPU += b.totalCPU - a.totalCPU
	r.mutexWait += b.mutexWait - a.mutexWait
	r.procCPU += b.procCPU - a.procCPU
	r.wall += b.wall.Sub(a.wall)
	r.samples++
	if r.schedCounts == nil {
		r.schedCounts = make([]uint64, len(b.sched.Counts))
		r.schedBuckets = b.sched.Buckets
	}
	for i := range b.sched.Counts {
		r.schedCounts[i] += b.sched.Counts[i] - a.sched.Counts[i]
	}
}

// schedQuantileUS returns the q-quantile of the scheduling latencies the
// deltas cover, in µs, interpolating linearly inside the bucket it falls
// in (the runtime only keeps bucket counts).
func (r *runtimeDelta) schedQuantileUS(q float64) float64 {
	var total uint64
	for _, c := range r.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := q * float64(total)
	var seen float64
	for i, c := range r.schedCounts {
		if c == 0 || seen+float64(c) < want {
			seen += float64(c)
			continue
		}
		lo, hi := r.schedBuckets[i], r.schedBuckets[i+1]
		if lo < 0 || hi > 1e9 { // open-ended edge buckets
			return 1e6 * max(lo, 0)
		}
		return 1e6 * (lo + (hi-lo)*(want-seen)/float64(c))
	}
	return 1e6 * r.schedBuckets[len(r.schedBuckets)-1]
}

// cpuUtil returns process CPU time over the wall time the deltas cover,
// as a share of GOMAXPROCS processors.
func (r *runtimeDelta) cpuUtil() float64 {
	return ratio(r.procCPU.Seconds(), r.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
}
