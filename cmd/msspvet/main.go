// Command msspvet statically checks MIR programs against the rule catalog
// in internal/vet (documented in docs/ANALYSIS.md). It vets plain programs
// as the sequential machine would run them and, with -distill, vets the
// distiller's output against the distillation contract (FORK/anchor
// agreement, link-value preservation).
//
// Usage:
//
//	msspvet -all                         # every registered workload
//	msspvet -workload compress -distill -threshold 0.95,0.999
//	msspvet -file prog.s
//	msspvet -all -distill -taint         # add the MV009–MV011 leak rules
//	msspvet -all -json                   # machine-readable findings
//
// With -taint every target additionally runs the speculative-taint rules
// MV009–MV011 (vet.CheckTaint, docs/SECURITY.md): plain programs are vetted
// entry-rooted as the loader starts them; distilled output is vetted with
// the surviving anchors (translated through OrigToDist) as task roots and
// arbitrary entry state, matching how the master reseeds there. Programs
// declaring no Secret regions are vacuously clean.
//
// With -json findings go to stdout as one JSON array of
// {target, mode, rule, pc, msg} records (empty array when clean) and the
// human summary moves to stderr, so CI and tooling can consume findings
// without parsing text.
//
// Exit status is non-zero when any finding is reported, so CI can gate on
// workload and distiller cleanliness directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mssp/internal/asm"
	"mssp/internal/distill"
	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/profile"
	"mssp/internal/vet"
	"mssp/internal/workloads"
)

func main() {
	var (
		workload   = flag.String("workload", "", "built-in workload name")
		all        = flag.Bool("all", false, "vet every registered workload")
		file       = flag.String("file", "", "MIR assembly file")
		doDistill  = flag.Bool("distill", false, "also vet the distilled output")
		thresholds = flag.String("threshold", "0.99", "comma-separated bias thresholds for -distill")
		stride     = flag.Uint64("stride", 100, "profiling task-size target for -distill")
		passes     = flag.Bool("passes", false, "enable the analysis-driven dead-code elimination pass for -distill")
		ref        = flag.Bool("ref", false, "build workloads at reference scale instead of training scale")
		taint      = flag.Bool("taint", false, "also run the speculative-taint leak rules MV009-MV011")
		jsonOut    = flag.Bool("json", false, "emit findings as a JSON array on stdout (summary goes to stderr)")
	)
	flag.Parse()

	var thrs []float64
	for _, s := range strings.Split(*thresholds, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatal(fmt.Errorf("bad -threshold %q: %v", s, err))
		}
		thrs = append(thrs, v)
	}

	type target struct {
		name string
		prog *isa.Program
	}
	var targets []target
	scale := workloads.Train
	if *ref {
		scale = workloads.Ref
	}
	switch {
	case *all:
		for _, w := range workloads.All() {
			targets = append(targets, target{w.Name, w.Build(scale)})
		}
	case *workload != "":
		w, err := workloads.ByName(*workload)
		if err != nil {
			fatal(err)
		}
		targets = append(targets, target{w.Name, w.Build(scale)})
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		p, err := asm.Assemble(string(src))
		if err != nil {
			fatal(err)
		}
		targets = append(targets, target{*file, p})
	default:
		fatal(fmt.Errorf("need -workload, -all, or -file"))
	}

	// jsonFinding is the machine-readable record -json emits, one per
	// finding: the target (workload or file), the vetting mode that raised
	// it, and the finding itself.
	type jsonFinding struct {
		Target string `json:"target"`
		Mode   string `json:"mode"`
		Rule   string `json:"rule"`
		PC     uint64 `json:"pc"`
		Msg    string `json:"msg"`
	}
	records := []jsonFinding{}
	findings := 0
	emit := func(name, mode string, fs []vet.Finding) {
		for _, f := range fs {
			findings++
			if *jsonOut {
				m := mode
				if m == "" {
					m = "plain"
				}
				records = append(records, jsonFinding{Target: name, Mode: m, Rule: f.Rule, PC: f.PC, Msg: f.Msg})
				continue
			}
			if mode == "" {
				fmt.Printf("%s: %v\n", name, f)
			} else {
				fmt.Printf("%s[%s]: %v\n", name, mode, f)
			}
		}
	}

	for _, tg := range targets {
		fs, err := vet.Check(tg.prog, nil)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", tg.name, err))
		}
		emit(tg.name, "", fs)
		// MV008: the superinstruction table the engines would build for this
		// program must re-encode to the original words (fused-bijection).
		emit(tg.name, "fused", vet.CheckFused(fuse.Predecode(tg.prog, fuse.Options{})))
		if *taint {
			tfs, err := vet.CheckTaint(tg.prog, vet.TaintOptions{})
			if err != nil {
				fatal(fmt.Errorf("%s: %v", tg.name, err))
			}
			emit(tg.name, "taint", tfs)
		}

		if !*doDistill {
			continue
		}
		prof, err := profile.Collect(tg.prog, profile.Options{Stride: *stride})
		if err != nil {
			fatal(fmt.Errorf("%s: profile: %v", tg.name, err))
		}
		for _, thr := range thrs {
			res, err := distill.Distill(tg.prog, prof, distill.Options{
				BiasThreshold:  thr,
				MinBranchCount: 16,
				DeadCodeElim:   *passes,
			})
			if err != nil {
				fatal(fmt.Errorf("%s@%v: distill: %v", tg.name, thr, err))
			}
			dfs, err := vet.Check(res.Prog, &vet.Distilled{
				Anchors:    res.Anchors,
				OrigToDist: res.OrigToDist,
			})
			if err != nil {
				fatal(fmt.Errorf("%s@%v: %v", tg.name, thr, err))
			}
			emit(tg.name, fmt.Sprintf("distilled@%v", thr), dfs)
			// MV008 on the distilled program's table, elision included —
			// elision redirects FusedInst.RdA/RdB, never the components, so
			// the bijection must hold for the master's table too.
			emit(tg.name, fmt.Sprintf("distilled@%v,fused", thr),
				vet.CheckFused(fuse.Predecode(res.Prog, fuse.Options{Elide: true})))
			if *taint {
				// The master reseeds its PC at each surviving anchor's
				// distilled address with whatever architected state the
				// last squash left: vet those addresses as roots over
				// arbitrary (but untainted) entry state.
				var roots []uint64
				for _, a := range res.Anchors {
					if d, ok := res.OrigToDist[a]; ok {
						roots = append(roots, d)
					}
				}
				tfs, err := vet.CheckTaint(res.Prog, vet.TaintOptions{Roots: roots, EntryArbitrary: true})
				if err != nil {
					fatal(fmt.Errorf("%s@%v: %v", tg.name, thr, err))
				}
				emit(tg.name, fmt.Sprintf("distilled@%v,taint", thr), tfs)
			}
		}
	}

	if *jsonOut {
		b, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "msspvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
	summary := fmt.Sprintf("msspvet: %d target(s) clean", len(targets))
	if *jsonOut {
		fmt.Fprintln(os.Stderr, summary)
	} else {
		fmt.Println(summary)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msspvet:", err)
	os.Exit(1)
}
