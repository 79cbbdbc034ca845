// Command distill profiles a program on its training input and prints the
// distilled program the MSSP master would execute, with transformation
// statistics.
//
// Usage:
//
//	distill -workload compress
//	distill -file prog.s -threshold 0.95 -disasm
//	distill -workload compress -passes -stats -vet
package main

import (
	"flag"
	"fmt"
	"os"

	"mssp"
	"mssp/internal/vet"
	"mssp/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "", "built-in workload name")
		file      = flag.String("file", "", "MIR assembly file")
		stride    = flag.Uint64("stride", 100, "task-size target in instructions")
		threshold = flag.Float64("threshold", 0.99, "bias threshold (1.0 disables pruning)")
		disasm    = flag.Bool("disasm", false, "print original and distilled disassembly")
		passes    = flag.Bool("passes", false, "enable the analysis-driven dead-code elimination pass")
		stats     = flag.Bool("stats", false, "print the pass's removal statistics (static and estimated dynamic)")
		doVet     = flag.Bool("vet", false, "vet the input and the distilled output; non-zero exit on findings")
	)
	flag.Parse()

	var prog *mssp.Program
	switch {
	case *workload != "":
		w, err := workloads.ByName(*workload)
		if err != nil {
			fatal(err)
		}
		prog = w.Build(workloads.Train)
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		p, err := mssp.Assemble(string(src))
		if err != nil {
			fatal(err)
		}
		prog = p
	default:
		fatal(fmt.Errorf("need -workload or -file"))
	}

	opts := mssp.DefaultPipelineOptions()
	opts.Stride = *stride
	opts.Distill.BiasThreshold = *threshold
	opts.Distill.DeadCodeElim = *passes
	pl, err := mssp.Prepare(prog, opts)
	if err != nil {
		fatal(err)
	}

	st := pl.Distilled.Stats
	fmt.Printf("profile:   %d instructions, %d anchors (stride %d)\n",
		pl.Profile.Total, len(pl.Profile.Anchors), pl.Profile.Stride)
	fmt.Printf("original:  %d instructions\n", st.OrigInsts)
	fmt.Printf("distilled: %d instructions (static ratio %.3f)\n", st.DistInsts, st.StaticCodeRatio)
	fmt.Printf("  branches pruned to jump: %d\n", st.PrunedToJump)
	fmt.Printf("  branches pruned to nop:  %d\n", st.PrunedToNop)
	fmt.Printf("  loop exits preserved:    %d\n", st.PreservedExits)
	fmt.Printf("  cold instructions dropped: %d\n", st.DroppedInsts)
	fmt.Printf("  fork markers inserted:   %d\n", st.Forks)
	fmt.Printf("  calls expanded:          %d\n", st.CallExpansions)

	if *stats {
		// The dynamic count estimates saved master work from the training
		// profile: executions of each removed instruction's original pc.
		fmt.Printf("dead code eliminated: %d static, ~%d dynamic\n", st.DCEInsts, st.DCEDynSaved)
	}

	if *doVet {
		findings := 0
		report := func(label string, fs []vet.Finding) {
			for _, f := range fs {
				fmt.Printf("vet %s: %v\n", label, f)
				findings++
			}
		}
		fs, err := vet.Check(prog, nil)
		if err != nil {
			fatal(err)
		}
		report("input", fs)
		dfs, err := vet.Check(pl.Distilled.Prog, &vet.Distilled{
			Anchors:    pl.Distilled.Anchors,
			OrigToDist: pl.Distilled.OrigToDist,
		})
		if err != nil {
			fatal(err)
		}
		report("distilled", dfs)
		if findings > 0 {
			fatal(fmt.Errorf("%d vet finding(s)", findings))
		}
		fmt.Println("vet: clean")
	}

	if *disasm {
		fmt.Println("\n=== original ===")
		fmt.Print(prog.Disassemble())
		fmt.Println("\n=== distilled ===")
		fmt.Print(pl.Distilled.Prog.Disassemble())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distill:", err)
	os.Exit(1)
}
