// Command msspsim runs a program under the MSSP machine and reports
// metrics and speedup against the sequential baseline.
//
// Usage:
//
//	msspsim -workload compress -scale ref
//	msspsim -file prog.s -slaves 15 -stride 200 -audit
//	msspsim -workload mtf -parallel            # true-parallel engine, wall-clock timing
//	msspsim -workload mtf -trace run.jsonl     # JSONL lifecycle event stream
//	msspsim -workload mtf -timeline 20         # last 20 commit/squash events
//	msspsim -replay run.jsonl                  # rebuild the timeline offline
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mssp"
	"mssp/internal/bench"
	"mssp/internal/core"
	"mssp/internal/obs"
	"mssp/internal/refine"
	"mssp/internal/trace"
	"mssp/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "", "built-in workload name (see -list)")
		file      = flag.String("file", "", "MIR assembly file to run instead of a workload")
		scale     = flag.String("scale", "ref", "workload input scale: train or ref")
		slaves    = flag.Int("slaves", 7, "number of slave processors")
		stride    = flag.Uint64("stride", 100, "task-size target in instructions")
		threshold = flag.Float64("threshold", 0.99, "distiller bias threshold (1.0 disables pruning)")
		audit     = flag.Bool("audit", false, "audit the printed run against the sequential model (jumping refinement)")
		par       = flag.Bool("parallel", false, "run the true-parallel engine (goroutine master/slaves, wall-clock timing) instead of the deterministic machine")
		traceOut  = flag.String("trace", "", "write the task-lifecycle event stream to this JSONL file")
		timeline  = flag.Int("timeline", 0, "print the last N commit/squash timeline events")
		replay    = flag.String("replay", "", "render the ASCII timeline from a JSONL trace file and exit")
		list      = flag.Bool("list", false, "list built-in workloads and exit")
	)
	flag.Parse()

	s, err := workloads.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-10s models %-12s %s\n", w.Name, w.Models, w.Description)
		}
		return
	}

	if *replay != "" {
		if err := replayTrace(*replay); err != nil {
			fatal(err)
		}
		return
	}

	prog, train, err := loadProgram(*workload, *file, s)
	if err != nil {
		fatal(err)
	}

	opts := mssp.DefaultPipelineOptions()
	opts.Stride = *stride
	opts.TrainProgram = train
	opts.Distill.BiasThreshold = *threshold
	opts.Machine.Slaves = *slaves
	opts.Machine.MinTaskSpacing = *stride

	var rec trace.Recorder
	if *timeline > 0 {
		rec.Cap = *timeline
		rec.Attach(&opts.Machine)
	}
	var sink *obs.JSONL
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		sink = obs.NewJSONL(f)
		obs.Attach(&opts.Machine, sink)
	}

	// The auditor rides on the run this command prints, on either engine,
	// so it audits exactly that run and costs no second simulation.
	var aud *refine.Auditor
	if *audit {
		aud = refine.NewAuditor(prog, opts.Machine.SP, refine.DefaultOptions())
		prev := opts.Machine.OnCommit
		opts.Machine.OnCommit = func(ev core.CommitEvent) {
			if prev != nil {
				prev(ev)
			}
			aud.OnCommit(ev)
		}
	}

	pl, err := mssp.Prepare(prog, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("distilled: %d -> %d static instructions (ratio %.3f), %d anchors\n",
		pl.Distilled.Stats.OrigInsts, pl.Distilled.Stats.DistInsts,
		pl.Distilled.Stats.StaticCodeRatio, len(pl.Distilled.Anchors))

	if *par {
		runParallel(pl, sink, &rec, *timeline, aud)
		return
	}

	res, err := pl.Run()
	if sink != nil {
		// The stream is complete once the machine has run; close before any
		// later exit path can truncate it.
		if cerr := sink.Close(); cerr != nil {
			fatal(fmt.Errorf("trace %s: %w", *traceOut, cerr))
		}
	}
	if err != nil {
		fatal(err)
	}
	m := res.MSSP.Metrics
	fmt.Printf("mssp:     %s\n", m.String())
	fmt.Printf("baseline: %.0f cycles (%d instructions)\n", res.Baseline.Cycles, res.Baseline.Steps)
	fmt.Printf("speedup:  %.3f  (dynamic distillation ratio %.3f, mean task %.1f insts)\n",
		res.Speedup(), m.DynamicDistillationRatio(), m.MeanTaskLen())
	fmt.Printf("cycles:   %s\n", bench.Attribute(m))

	if *timeline > 0 {
		fmt.Printf("\ntimeline (last %d events):\n%s", *timeline, rec.String())
	}

	if aud != nil {
		report(aud.Finish(res.MSSP.Final))
	}
}

// report prints the audit of the run printed above it, exiting 1 on a
// violation.
func report(rep *refine.Report) {
	if !rep.OK {
		fmt.Printf("audit:    VIOLATED — %v\n", rep.FirstViolation())
		os.Exit(1)
	}
	fmt.Printf("audit:    OK — %d commits, %d reference instructions replayed\n",
		rep.Commits, rep.RefSteps)
}

// runParallel executes the pipeline on the true-parallel engine, timing the
// run and its sequential baseline on the wall clock (the parallel engine has
// no cycle model; real elapsed time is its only honest speedup metric). A
// non-nil aud is already attached to the run's commit stream.
func runParallel(pl *mssp.Pipeline, sink *obs.JSONL, rec *trace.Recorder, timeline int, aud *refine.Auditor) {
	t0 := time.Now()
	res, err := pl.RunParallel()
	parWall := time.Since(t0)
	if sink != nil {
		if cerr := sink.Close(); cerr != nil {
			fatal(cerr)
		}
	}
	if err != nil {
		fatal(err)
	}
	m := res.Parallel.Metrics
	fmt.Printf("parallel: %s\n", m.String())
	fmt.Printf("baseline: %d instructions (state verified equal)\n", res.Baseline.Steps)
	auditNote := ""
	if aud != nil {
		auditNote = ", audit included"
	}
	fmt.Printf("wall:     %v for %d committed insts on %d goroutines%s (msspbench records calibrated speedup vs the timed sequential core)\n",
		parWall, m.CommittedInsts, res.Parallel.Goroutines, auditNote)

	if timeline > 0 {
		fmt.Printf("\ntimeline (last %d events):\n%s", timeline, rec.String())
	}
	if aud != nil {
		report(aud.Finish(res.Parallel.Final))
	}
}

// replayTrace renders the ASCII timeline from a recorded JSONL stream, the
// offline equivalent of -timeline on a live run.
func replayTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ParseJSONL(f)
	if err != nil {
		return err
	}
	rec := trace.FromEvents(events)
	commits, fallbacks, squashes, insts := rec.Summary()
	fmt.Printf("%d events: %d commits, %d fallbacks, %d squashes, %d instructions\n",
		len(events), commits, fallbacks, squashes, insts)
	fmt.Print(rec.String())
	return nil
}

// loadProgram resolves the measured program and (for workloads) the train
// build used for profiling.
func loadProgram(workload, file string, scale workloads.Scale) (prog, train *mssp.Program, err error) {
	switch {
	case workload != "" && file != "":
		return nil, nil, fmt.Errorf("msspsim: -workload and -file are mutually exclusive")
	case workload != "":
		w, err := workloads.ByName(workload)
		if err != nil {
			return nil, nil, err
		}
		return w.Build(scale), w.Build(workloads.Train), nil
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, nil, err
		}
		p, err := mssp.Assemble(string(src))
		if err != nil {
			return nil, nil, err
		}
		return p, nil, nil
	}
	return nil, nil, fmt.Errorf("msspsim: need -workload or -file (try -list)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msspsim:", err)
	os.Exit(1)
}
