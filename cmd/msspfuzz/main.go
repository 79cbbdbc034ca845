// Command msspfuzz drives the deterministic differential fuzzing harness in
// internal/chaos outside the go-test machinery: seeded soaks for CI, exact
// replay of recorded failures, and one-seed reproduction for triage.
//
// Usage:
//
//	msspfuzz -count 500 -faults 1 -require-coverage   # CI soak
//	msspfuzz -seed 42 -faults 1 -v                    # reproduce one seed
//	msspfuzz -count 1000 -out failures.jsonl          # record failures
//	msspfuzz -replay failures.jsonl                   # re-run recorded failures
//	msspfuzz -taint -count 1000 -faults 0 -require-coverage  # security soak
//	msspfuzz -mix -count 1000                         # cross-axis soak
//
// With -mix every seed draws its own engine, fusion, interpreter,
// distillation pass, taint mode, fault intensity and task window
// (chaos.DrawMix) in place of the flags for those axes, which it refuses
// beside it. The draw goes into the report and into failure artifacts, and
// -replay reruns it.
//
// With -taint the generator emits Spectre-shaped leak gadgets over a secret
// data segment and every seed additionally runs the security differential:
// the static leak rules MV009–MV011 (vet.CheckTaint) against a dynamic
// taint observer replaying the clean legs' tasks, failing any seed where a
// static-clean program is dynamically flagged (docs/SECURITY.md).
//
// Every run is a pure function of (seed, fault intensity), or of the seed
// alone under -mix: a soak over
// -count seeds starting at -seed finds exactly the same failures every
// time, and -replay re-derives them from the JSONL artifacts alone. The
// exit status is 0 only if every run was a clean three-way differential
// and, under -require-coverage, the soak provoked every lifecycle event
// kind and every squash reason (docs/TESTING.md documents the taxonomy).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mssp/internal/chaos"
	"mssp/internal/core"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 0, "first (or only) seed")
		count    = flag.Int("count", 1, "number of consecutive seeds to run")
		faults   = flag.Float64("faults", 1, "fault-injection intensity in [0,1]; 0 skips the faulted leg")
		out      = flag.String("out", "", "append failure artifacts to this JSONL file")
		replay   = flag.String("replay", "", "re-run the failures recorded in this JSONL file and exit")
		requireC = flag.Bool("require-coverage", false, "fail unless the soak provoked every event kind and squash reason")
		verbose  = flag.Bool("v", false, "print the full JSON report of every run")
		interp   = flag.String("interp", "fast", "execution core: fast, slow, or both (run each seed on both and diff the reports)")
		fuse     = flag.String("fuse", "on", "superinstruction dispatch: on, off, or both (run each seed fused and unfused and diff the reports)")
		engine   = flag.String("engine", "det", "speculative engine(s): det, or parallel (adds true-parallel legs cross-checked against det)")
		taintF   = flag.Bool("taint", false, "generate leak gadgets over a secret segment and run the taint differential: static leak rules, dynamic observer on clean legs, static-dominates-dynamic check")
		mix      = flag.Bool("mix", false, "draw each seed's engine, fusion, interpreter, distillation pass, taint mode, fault intensity and task window from the seed")
	)
	flag.Parse()

	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	err := checkFlags(*faults, *count, *interp, *fuse, *engine)
	if err == nil && *mix {
		err = checkMix(set)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "msspfuzz: %v\n", err)
		os.Exit(2)
	}
	if *replay != "" {
		os.Exit(replayArtifacts(*replay, *engine, *verbose))
	}
	os.Exit(soak(*seed, *count, *faults, *out, *interp, *fuse, *engine, *requireC, *taintF, *mix, *verbose))
}

// mixedAxes are the flags a mixed soak draws per seed instead.
var mixedAxes = []string{"faults", "interp", "fuse", "engine", "taint"}

// checkMix rejects, beside -mix, the flags set (by name) whose axes the mix
// draws per seed.
func checkMix(set []string) error {
	for _, name := range set {
		for _, axis := range mixedAxes {
			if name == axis {
				return fmt.Errorf("-mix draws -%s per seed; drop one of them", name)
			}
		}
	}
	return nil
}

// checkFlags rejects flag values and combinations a soak cannot run as
// asked; main exits 2 on them before running anything.
func checkFlags(faults float64, count int, interp, fuse, engine string) error {
	if !(faults >= 0 && faults <= 1) {
		return fmt.Errorf("-faults must be in [0, 1], got %g", faults)
	}
	if count < 1 {
		// A soak over no seeds would report itself clean.
		return fmt.Errorf("-count must be at least 1, got %d", count)
	}
	switch interp {
	case "fast", "slow", "both":
	default:
		return fmt.Errorf("-interp must be fast, slow or both, got %q", interp)
	}
	switch fuse {
	case "on", "off", "both":
	default:
		return fmt.Errorf("-fuse must be on, off or both, got %q", fuse)
	}
	switch engine {
	case chaos.EngineDet, chaos.EngineParallel:
	default:
		return fmt.Errorf("-engine must be det or parallel, got %q", engine)
	}
	if fuse == "both" && (interp == "both" || engine == chaos.EngineParallel) {
		// Like -interp both, the fuse differential byte-diffs two reports;
		// combining differentials (or schedule-dependent parallel metrics)
		// would make the diff meaningless.
		return fmt.Errorf("-fuse both cannot combine with -interp both or -engine parallel")
	}
	if engine == chaos.EngineParallel && interp == "both" {
		// The interp differential byte-diffs the two reports; parallel legs
		// carry schedule-dependent metrics, so the diff would be noise.
		return fmt.Errorf("-engine parallel cannot combine with -interp both (parallel reports are not byte-comparable)")
	}
	return nil
}

// runSeed executes one seed under the selected interpreter(s) and fusion
// mode(s). For -interp both it runs the fast and slow cores, for -fuse both
// the fused and unfused dispatchers, and appends a failure to the primary
// report if the two reports are not byte-identical JSON — the command-line
// forms of the interpreter and fusion differentials.
func runSeed(s uint64, faults float64, interp, fuse, engine string, taint bool) *chaos.Report {
	if fuse == "both" {
		fused := chaos.Run(chaos.Options{Seed: s, FaultIntensity: faults, Fuse: "on", Taint: taint})
		unfused := chaos.Run(chaos.Options{Seed: s, FaultIntensity: faults, Fuse: "off", Taint: taint})
		fb, _ := json.Marshal(fused)
		ub, _ := json.Marshal(unfused)
		if string(fb) != string(ub) {
			fused.Failures = append(fused.Failures,
				fmt.Sprintf("fuse differential: fused and unfused reports diverge\nfused: %s\nunfused: %s", fb, ub))
			fused.OK = false
		}
		return fused
	}
	if interp != "both" {
		return chaos.Run(chaos.Options{Seed: s, FaultIntensity: faults, Interp: interp, Fuse: fuse, Engine: engine, Taint: taint})
	}
	fast := chaos.Run(chaos.Options{Seed: s, FaultIntensity: faults, Interp: "fast", Fuse: fuse, Taint: taint})
	slow := chaos.Run(chaos.Options{Seed: s, FaultIntensity: faults, Interp: "slow", Fuse: fuse, Taint: taint})
	fb, _ := json.Marshal(fast)
	sb, _ := json.Marshal(slow)
	if string(fb) != string(sb) {
		fast.Failures = append(fast.Failures,
			fmt.Sprintf("interp differential: fast and slow reports diverge\nfast: %s\nslow: %s", fb, sb))
		fast.OK = false
	}
	return fast
}

// soak runs count consecutive seeds and reports aggregate coverage.
func soak(seed uint64, count int, faults float64, out, interp, fuse, engine string, requireC, taint, mix, verbose bool) int {
	var sink *os.File
	if out != "" {
		f, err := os.OpenFile(out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msspfuzz:", err)
			return 2
		}
		defer f.Close()
		sink = f
	}

	cov := chaos.NewCoverage()
	failed := 0
	for i := 0; i < count; i++ {
		s := seed + uint64(i)
		var rep *chaos.Report
		if mix {
			m := chaos.DrawMix(s)
			rep = chaos.Run(m.Options(s))
			rep.Mix = &m
		} else {
			rep = runSeed(s, faults, interp, fuse, engine, taint)
		}
		if verbose {
			b, _ := json.MarshalIndent(rep, "", "  ")
			fmt.Println(string(b))
		}
		cov.Merge(legCoverage(rep.Clean))
		cov.Merge(legCoverage(rep.Fault))
		cov.Merge(legCoverage(rep.ParClean))
		cov.Merge(legCoverage(rep.ParFault))
		if rep.OK {
			continue
		}
		failed++
		again := fmt.Sprintf("-faults %g", faults)
		if mix {
			again = "-mix"
		}
		fmt.Fprintf(os.Stderr, "FAIL seed %d (replay: msspfuzz %s -seed %d):\n  %s\n",
			s, again, s, strings.Join(rep.Failures, "\n  "))
		if sink != nil {
			if err := chaos.NewArtifact(rep).WriteJSONL(sink); err != nil {
				fmt.Fprintln(os.Stderr, "msspfuzz: writing artifact:", err)
				return 2
			}
		}
	}

	missK := cov.MissingKinds()
	missR := cov.MissingReasons(faults > 0 || mix)
	if taint {
		// Taint-mode programs are call-free and keep every computed address
		// masked in bounds (the static analysis's precision depends on it),
		// so they cannot provoke the organic "fault" squash; exempt it.
		missR = dropString(missR, core.SquashFault)
	}
	drawn := fmt.Sprintf("faults=%g", faults)
	if mix {
		drawn = "mixed"
	}
	fmt.Printf("msspfuzz: %d/%d seeds clean (%s); coverage: %d kinds missing %v, reasons missing %v\n",
		count-failed, count, drawn, len(missK), missK, missR)
	var missG, missF []string
	if taint {
		// A taint soak must also have emitted every gadget shape and raised
		// every dynamic flag kind — otherwise the dominance property was
		// tested against a corpus that never exercised part of the taxonomy.
		missG, missF = cov.MissingGadgets(), cov.MissingFlags()
		fmt.Printf("msspfuzz: taint coverage: gadgets missing %v, flags missing %v\n", missG, missF)
	}
	if failed > 0 {
		return 1
	}
	if requireC && (len(missK) > 0 || len(missR) > 0 || len(missG) > 0 || len(missF) > 0) {
		fmt.Fprintln(os.Stderr, "msspfuzz: -require-coverage: taxonomy not fully provoked")
		return 1
	}
	return 0
}

// replayArtifacts re-runs each recorded failure from its seed alone. A
// record that still fails identically is "reproduced"; one that now passes
// (after a fix) is reported as such.
func replayArtifacts(path, engine string, verbose bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msspfuzz:", err)
		return 2
	}
	defer f.Close()
	arts, err := chaos.ReadArtifacts(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msspfuzz:", err)
		return 2
	}
	if len(arts) == 0 {
		fmt.Println("msspfuzz: no artifacts to replay")
		return 0
	}
	reproduced := 0
	for _, a := range arts {
		opts := chaos.Options{Seed: a.Seed, FaultIntensity: a.FaultIntensity, Engine: engine, Taint: a.Gen.Taint}
		if a.Mix != nil {
			opts = a.Mix.Options(a.Seed)
		}
		rep := chaos.Run(opts)
		rep.Mix = a.Mix
		if verbose {
			b, _ := json.MarshalIndent(rep, "", "  ")
			fmt.Println(string(b))
		}
		if rep.OK {
			fmt.Printf("seed %d faults=%g: now PASSES (recorded: %s)\n",
				a.Seed, a.FaultIntensity, strings.Join(a.Failures, "; "))
			continue
		}
		reproduced++
		fmt.Printf("seed %d faults=%g: reproduced\n  %s\n",
			a.Seed, a.FaultIntensity, strings.Join(rep.Failures, "\n  "))
	}
	fmt.Printf("msspfuzz: replayed %d artifacts, %d still failing\n", len(arts), reproduced)
	if reproduced > 0 {
		return 1
	}
	return 0
}

func legCoverage(lr *chaos.LegReport) *chaos.Coverage {
	if lr == nil {
		return nil
	}
	return lr.Coverage
}

func dropString(xs []string, drop string) []string {
	out := xs[:0]
	for _, x := range xs {
		if x != drop {
			out = append(out, x)
		}
	}
	return out
}
