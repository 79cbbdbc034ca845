// Package mssp is a Go implementation of Master/Slave Speculative
// Parallelization (MSSP), the execution paradigm of Zilles and Sohi
// (MICRO-35, 2002), together with everything needed to study it: a 64-bit
// RISC ISA and assembler, a sequential reference machine, a profile-driven
// program distiller, the MSSP machine itself (master, slaves, verify/commit
// unit) with a deterministic event-timing model, a jumping-refinement
// auditor derived from the companion formal model, a SPECint2000-shaped
// workload suite, and an experiment harness reproducing the paper's tables
// and figures.
//
// # Quick start
//
//	prog, err := mssp.Assemble(src)            // or workloads.ByName(...)
//	pl, err := mssp.Prepare(prog, mssp.DefaultPipelineOptions())
//	res, err := pl.Run()                       // MSSP execution
//	fmt.Println(res.Speedup(), res.MSSP.Metrics.String())
//
// The facade exposes the common flow; the full surface lives in the
// internal packages and is re-exported here where downstream users need it.
package mssp

import (
	"fmt"
	"io"

	"mssp/internal/asm"
	"mssp/internal/baseline"
	"mssp/internal/core"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/obs"
	"mssp/internal/parallel"
	"mssp/internal/profile"
	"mssp/internal/refine"
)

// Program is a linked MIR program image.
type Program = isa.Program

// MachineConfig configures the MSSP machine.
type MachineConfig = core.Config

// MachineResult is an MSSP run outcome.
type MachineResult = core.Result

// Metrics aggregates an MSSP run's counters and cycle totals.
type Metrics = core.Metrics

// DistillOptions configures the distiller.
type DistillOptions = distill.Options

// Distilled is a distilled program plus the master's metadata.
type Distilled = distill.Result

// Profile is a training-run profile.
type Profile = profile.Profile

// RefinementReport is the jumping-refinement audit result.
type RefinementReport = refine.Report

// Assemble translates MIR assembly into a program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// MustAssemble is Assemble that panics on error.
func MustAssemble(src string) *Program { return asm.MustAssemble(src) }

// DefaultMachineConfig returns the 8-CPU machine used by the experiments.
func DefaultMachineConfig() MachineConfig { return core.DefaultConfig() }

// DefaultDistillOptions returns the experiments' distiller configuration.
func DefaultDistillOptions() DistillOptions { return distill.DefaultOptions() }

// PipelineOptions configures Prepare.
type PipelineOptions struct {
	// Stride is the task-size target in instructions.
	Stride uint64
	// TrainProgram optionally profiles a different build of the same code
	// (a training input); nil profiles the measured program itself.
	TrainProgram *Program
	// Distill configures the distiller.
	Distill DistillOptions
	// Machine configures the MSSP machine.
	Machine MachineConfig
}

// DefaultPipelineOptions returns the experiment defaults.
func DefaultPipelineOptions() PipelineOptions {
	return PipelineOptions{
		Stride:  100,
		Distill: distill.DefaultOptions(),
		Machine: core.DefaultConfig(),
	}
}

// Pipeline is a prepared program: profiled and distilled, ready to run.
type Pipeline struct {
	Prog      *Program
	Profile   *Profile
	Distilled *Distilled
	Opts      PipelineOptions
}

// Prepare profiles and distills prog according to opts.
func Prepare(prog *Program, opts PipelineOptions) (*Pipeline, error) {
	if opts.Stride == 0 {
		opts.Stride = 100
	}
	train := opts.TrainProgram
	if train == nil {
		train = prog
	}
	prof, err := profile.Collect(train, profile.Options{Stride: opts.Stride, SP: opts.Machine.SP})
	if err != nil {
		return nil, fmt.Errorf("mssp: %w", err)
	}
	d, err := distill.Distill(train, prof, opts.Distill)
	if err != nil {
		return nil, fmt.Errorf("mssp: %w", err)
	}
	return &Pipeline{Prog: prog, Profile: prof, Distilled: d, Opts: opts}, nil
}

// RunResult pairs an MSSP run with its sequential baseline.
type RunResult struct {
	MSSP     *MachineResult
	Baseline *baseline.Result
}

// Speedup returns baseline cycles over MSSP cycles.
func (r *RunResult) Speedup() float64 {
	if r.MSSP.Cycles <= 0 {
		return 0
	}
	return r.Baseline.Cycles / r.MSSP.Cycles
}

// Run executes the prepared program under MSSP and on the sequential
// baseline, verifying that both produce identical architected state.
func (p *Pipeline) Run() (*RunResult, error) {
	m, err := core.New(p.Prog, p.Distilled, p.Opts.Machine)
	if err != nil {
		return nil, fmt.Errorf("mssp: %w", err)
	}
	res, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("mssp: %w", err)
	}
	b, err := baseline.Run(p.Prog, baseline.Config{CPI: p.Opts.Machine.SlaveCPI, SP: p.Opts.Machine.SP})
	if err != nil {
		return nil, fmt.Errorf("mssp: %w", err)
	}
	if !res.Final.Equal(b.Final) {
		return nil, fmt.Errorf("mssp: MSSP final state diverged from sequential execution (simulator bug)")
	}
	return &RunResult{MSSP: res, Baseline: b}, nil
}

// Audit runs the prepared program under MSSP with the jumping-refinement
// checker attached, verifying every commit against the sequential model.
func (p *Pipeline) Audit() (*RefinementReport, error) {
	return refine.Check(p.Prog, p.Distilled, p.Opts.Machine, refine.DefaultOptions())
}

// ParallelResult is the true-parallel engine's run outcome.
type ParallelResult = parallel.Result

// ParallelRunResult pairs a true-parallel MSSP run with its sequential
// baseline. Unlike RunResult there is no modeled-cycle speedup: the parallel
// engine runs in wall-clock time (measure it around RunParallel if needed).
type ParallelRunResult struct {
	Parallel *ParallelResult
	Baseline *baseline.Result
}

// RunParallel executes the prepared program on the true-parallel MSSP
// engine (internal/parallel) — master, slaves and verify/commit unit on
// real goroutines — and on the sequential baseline, verifying that both
// produce identical architected state. Timing fields of the machine config
// are ignored; structural fields apply unchanged.
func (p *Pipeline) RunParallel() (*ParallelRunResult, error) {
	res, err := parallel.Run(p.Prog, p.Distilled, p.Opts.Machine)
	if err != nil {
		return nil, fmt.Errorf("mssp: %w", err)
	}
	b, err := baseline.Run(p.Prog, baseline.Config{CPI: p.Opts.Machine.SlaveCPI, SP: p.Opts.Machine.SP})
	if err != nil {
		return nil, fmt.Errorf("mssp: %w", err)
	}
	if !res.Final.Equal(b.Final) {
		return nil, fmt.Errorf("mssp: parallel final state diverged from sequential execution (engine bug)")
	}
	return &ParallelRunResult{Parallel: res, Baseline: b}, nil
}

// TraceEvent is one task-lifecycle transition (fork, dispatch, verify,
// commit, squash, fallback-enter/-exit) with its model-time cycle stamp;
// see internal/obs and docs/OBSERVABILITY.md for the schema.
type TraceEvent = obs.Event

// TraceKind classifies a TraceEvent.
type TraceKind = obs.Kind

// TraceSink consumes a lifecycle event stream.
type TraceSink = obs.Sink

// JSONLTrace streams events as one JSON object per line.
type JSONLTrace = obs.JSONL

// AttachTrace subscribes a sink to a machine configuration's lifecycle
// stream, chaining any observers already attached.
func AttachTrace(cfg *MachineConfig, sink TraceSink) { obs.Attach(cfg, sink) }

// NewJSONLTrace returns a JSONL sink writing to w; Close it to flush.
func NewJSONLTrace(w io.Writer) *JSONLTrace { return obs.NewJSONL(w) }

// ParseTrace reads a JSONL event stream back into events.
func ParseTrace(r io.Reader) ([]TraceEvent, error) { return obs.ParseJSONL(r) }
