package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

const (
	// setupReps is how many times an end-to-end run sets its workload up;
	// setup_s is the median. The first setup's inputs are the ones measured;
	// the others run between the first samples, so the median sees the same
	// host the samples see rather than one moment at start-up.
	setupReps = 5
	// minSamples and maxSamples bound the timed loop whatever --seconds
	// says: enough samples for a median and a quartile, and a cap that
	// keeps a run far inside the time the benchmark contract allows.
	minSamples = 5
	maxSamples = 400
)

// outcome is everything one workload run prints.
type outcome struct {
	metrics   []metric // the report's metrics
	info      []metric // printed lines only: controls and ungated ratios
	attempted int
	failures  []string
}

// add folds a sample's checked operations into the outcome.
func (out *outcome) add(s sample) {
	out.attempted += s.runs
	out.failures = append(out.failures, s.fails...)
}

// fail records a failed check outside any sample.
func (out *outcome) fail(err error) {
	out.attempted++
	out.failures = append(out.failures, err.Error())
}

func (out *outcome) report() report {
	rep := report{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    len(out.failures),
		Metrics:   make(map[string]jsonMetric, len(out.metrics)),
	}
	for _, m := range out.metrics {
		rep.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return rep
}

// run sets the workload up, warms it with one untimed sample, and measures
// it end to end or, with o.trace, layer by layer. Every timed section starts
// from a collected heap, so none pays for, or races the collection of, the
// previous section's garbage.
func run(w *workload, o options) (*outcome, error) {
	runtime.GC()
	var lt layerTimes
	start := time.Now()
	s, err := w.setup(o, &lt)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start).Seconds()
	runtime.GC()
	out := &outcome{}
	out.add(s.run(0, nil))
	if o.trace {
		traced(o, s, lt, out)
	} else {
		untraced(o, w, s, setup, out)
	}
	return out, nil
}

// untraced measures the end-to-end metrics. Every sample is flanked by the
// two drift controls: the host calibration kernel before it and the
// sequential core over the same programs after it.
//
// The gated throughput is the speedup: each sample's rate over the rate of
// the sequential control that follows it. On the reference host, a shared
// 2-vCPU virtual machine, raw rates moved by up to half between runs as
// neighbours came and went, and the calibration kernel moved far less than
// the interpreters did. The sequential control runs the same programs on
// the same host moments later, so the ratio cancels that drift. Raw rates
// are printed, ungated.
func untraced(o options, w *workload, s suite, setup float64, out *outcome) {
	setups := []float64{setup}
	var rates, seqRates, speedups, calib, allocs []float64
	o.loop(1, func(i int) {
		if len(setups) < setupReps && !o.smoke {
			start := time.Now()
			if _, err := w.setup(o, &layerTimes{}); err != nil {
				out.fail(err)
			} else {
				setups = append(setups, time.Since(start).Seconds())
			}
			runtime.GC()
		}
		calib = append(calib, calibrate())
		before := heapAllocs()
		smp := s.run(i, nil)
		allocated := heapAllocs() - before
		out.add(smp)
		runtime.GC()
		insts, d, err := s.seq(i)
		if err != nil {
			out.fail(err)
			return
		}
		seqRate := mips(insts, d)
		seqRates = append(seqRates, seqRate)
		if len(smp.fails) == 0 {
			rate := mips(smp.insts, smp.wall)
			rates = append(rates, rate)
			speedups = append(speedups, ratio(rate, seqRate))
			allocs = append(allocs, ratio(float64(allocated), float64(smp.insts)))
		}
	})
	out.metrics = []metric{
		{"setup_s", quantile(setups, 0.5), "s"},
		{"speedup_p50", quantile(speedups, 0.5), "x"},
		{"speedup_p25", quantile(speedups, 0.25), "x"},
		{"alloc_bytes_per_inst", quantile(allocs, 0.5), "B"},
	}
	// Peak RSS is reported but not gated: on the small heaps of par-lean and
	// chaos-soak it is set by when the collector happens to run, and it
	// spread 7–14% and 27–52% between runs of identical inputs.
	out.info = []metric{
		{"mips_p50", quantile(rates, 0.5), "Minst/s"},
		{"mips_p25", quantile(rates, 0.25), "Minst/s"},
		{"seq_mips_p50", quantile(seqRates, 0.5), "Minst/s"},
		{"max_rss_mb", maxRSSMB(), "MB"},
		{"host.calib_mops", quantile(calib, 0.5), "Mop/s"},
		{"samples", float64(len(speedups)), "count"},
	}
}

// loop calls body for samples 1, 2, ... until share of the run's seconds is
// spent, within [minSamples, maxSamples]; a smoke run takes exactly two.
// Each call starts from a collected heap.
func (o options) loop(share float64, body func(i int)) {
	budget := time.Duration(o.seconds * share * float64(time.Second))
	start := time.Now()
	for n := 0; ; n++ {
		if o.smoke {
			if n == 2 {
				return
			}
		} else if n >= maxSamples || (n >= minSamples && time.Since(start) >= budget) {
			return
		}
		runtime.GC()
		body(n + 1)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no data). It sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mips converts instructions over a duration to millions per second.
func mips(insts uint64, d time.Duration) float64 {
	return ratio(float64(insts)/1e6, d.Seconds())
}

// calibSink keeps the calibration kernel's result live.
var calibSink uint64

// calibrate times a fixed pure-Go kernel — an xorshift stream scattering
// into a table that fits in the L1 cache — and returns its rate in millions
// of operations per second. It runs no repository code, so when it moves,
// the host moved.
func calibrate() float64 {
	const ops = 1 << 21
	var tab [1024]uint64
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < ops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tab[x&1023] += x
	}
	d := time.Since(start)
	calibSink += tab[x&1023]
	return ops / d.Seconds() / 1e6
}

// rusage returns the process's resource usage; ok is false if the system
// refuses it.
func rusage() (syscall.Rusage, bool) {
	var ru syscall.Rusage
	err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru, err == nil
}

// heapAllocs returns the bytes the process has allocated on the heap so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	ru, ok := rusage()
	if !ok {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	ru, _ := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
