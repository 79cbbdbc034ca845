// Command experiments regenerates the tables and figures of the
// reconstructed MSSP evaluation (see DESIGN.md and EXPERIMENTS.md).
//
// Sweep points run on -workers goroutines (default GOMAXPROCS); results
// are merged in index order, so the rendered output is byte-identical to
// -workers 1.
//
// Usage:
//
//	experiments                      # every experiment, ref inputs
//	experiments -run E3,E4           # a subset
//	experiments -scale train         # quick pass on training inputs
//	experiments -workloads compress,mtf
//	experiments -workers 1           # one sweep point at a time
//
// Every requested experiment runs even if an earlier one fails; failures
// are summarized on stderr and reflected in a non-zero exit code.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"mssp/internal/bench"
	"mssp/internal/core"
	"mssp/internal/obs"
	"mssp/internal/workloads"
)

func main() {
	var (
		run      = flag.String("run", "", "comma-separated experiment ids (default: all)")
		scale    = flag.String("scale", "ref", "workload input scale: train or ref")
		names    = flag.String("workloads", "", "comma-separated workload subset (default: all)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "sweep points run at once (0 or 1 = one at a time)")
		verbose  = flag.Bool("stats", false, "print artifact-cache counters to stderr at exit")
		traceOut = flag.String("trace", "", "write every simulation's task-lifecycle events to this JSONL file (lines labeled by workload)")
	)
	flag.Parse()

	s, err := workloads.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	// Ctrl-C / SIGTERM cancels the shared context: sweep points not yet
	// started fail, and the experiment loop below stops starting new
	// experiments — so an interrupted run exits promptly with a summary
	// instead of finishing the suite.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ctx := bench.NewContext(s)
	ctx.Workers = *workers
	ctx.Ctx = sigCtx
	if *names != "" {
		// Resolve every name before anything runs: an unknown one would
		// otherwise filter silently to an empty table.
		for _, n := range strings.Split(*names, ",") {
			n = strings.TrimSpace(n)
			if _, err := workloads.ByName(n); err != nil {
				fatal(err)
			}
			ctx.Names = append(ctx.Names, n)
		}
	}
	var sink *obs.JSONL
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		sink = obs.NewJSONL(f)
		defer closeSink(sink, *traceOut)
		// With several workers the streams of concurrent sweep points
		// interleave; the job label tells them apart and each line stays
		// atomic.
		ctx.Instrument = func(label string, cfg *core.Config) {
			obs.Attach(cfg, obs.WithJob(sink, label))
		}
	}

	exps := bench.All()
	if *run != "" {
		exps = exps[:0]
		for _, id := range strings.Split(*run, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			exps = append(exps, e)
		}
	}

	var failed []string
	for _, e := range exps {
		if sigCtx.Err() != nil {
			fmt.Fprintf(os.Stderr, "experiments: interrupted before %s; stopping\n", e.ID)
			failed = append(failed, fmt.Sprintf("%s (interrupted)", e.ID))
			continue
		}
		out, err := e.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			// Keep the cause next to the ID in the exit summary: the per-
			// experiment line above can be far away by the time the summary
			// prints, and E10's error carries the first refine mismatch.
			failed = append(failed, fmt.Sprintf("%s (%v)", e.ID, firstLine(err)))
			continue
		}
		fmt.Printf("== %s: %s ==\n%s\n", e.ID, e.Title, out)
	}

	if *verbose {
		for kind, m := range ctx.CacheMetrics() {
			fmt.Fprintf(os.Stderr, "cache[%s]: %+v (hit rate %.3f)\n", kind, m, m.HitRate())
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d of %d experiment(s) failed: %s\n",
			len(failed), len(exps), strings.Join(failed, ", "))
		closeSink(sink, *traceOut) // os.Exit skips the deferred close
		os.Exit(1)
	}
}

// closeSink flushes the JSONL trace, reporting (not failing on) errors; it
// is safe to call twice and with a nil sink.
func closeSink(sink *obs.JSONL, path string) {
	if sink == nil {
		return
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: trace %s: %v\n", path, err)
	}
}

// firstLine truncates a multi-line error (E10 appends its table) to the
// line that names the failure.
func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
