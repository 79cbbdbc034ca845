// Package bench implements the experiment harness: one runner per table or
// figure of the reconstructed MICRO-35 MSSP evaluation. Each experiment
// renders the same rows/series the paper reports; EXPERIMENTS.md records
// the paper-shape expectation next to the measured result.
//
// Sweep points — independent (workload × config) jobs — fan out across
// Context.Workers goroutines (cmd/experiments defaults to GOMAXPROCS) and
// their results are merged in index order, so rendered tables and figures
// are byte-identical to a one-worker run. Expensive shared artifacts —
// assembled programs, profiles, distillations, baseline runs — are
// memoized content-keyed in internal/cache with single-flight semantics,
// so concurrent sweep points needing the same distillation compute it once.
package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"mssp/internal/baseline"
	"mssp/internal/cache"
	"mssp/internal/core"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/profile"
	"mssp/internal/workloads"
)

// Context carries the experiment configuration and caches the expensive
// shared artifacts (programs, profiles, distillations, baseline runs) so
// sweeps do not redo common work.
type Context struct {
	// Scale selects the measured input (Ref for real experiments; tests
	// use Train for speed).
	Scale workloads.Scale
	// Stride is the default task-size target in instructions.
	Stride uint64
	// Names restricts the workload set (nil = all).
	Names []string
	// Workers bounds how many sweep points run at once. Zero or one runs
	// them one at a time; results are merged in index order either way, so
	// output does not depend on the worker count.
	Workers int
	// Ctx, when non-nil, cancels sweeps in flight: points not yet started
	// when it ends fail with its error. cmd/experiments wires its
	// Ctrl-C/SIGTERM signal context here so an interrupted run stops
	// promptly instead of finishing the sweep. Nil means
	// context.Background() (never canceled).
	Ctx context.Context
	// Instrument, when non-nil, is called with each MSSP machine's
	// configuration just before it runs (label is the workload name), so
	// callers can attach observers — e.g. cmd/experiments -trace wires a
	// shared JSONL sink here via obs.Attach. Runs are concurrent when
	// Workers exceeds one, so attached sinks must then be safe for
	// concurrent use; rendered experiment output is unaffected either way.
	Instrument func(label string, cfg *core.Config)

	progs     *cache.Cache[string, *isa.Program]
	profiles  *cache.Cache[string, *profile.Profile]
	distills  *cache.Cache[string, *distill.Result]
	baselines *cache.Cache[string, *baseline.Result]
}

// NewContext returns a context with the default experiment configuration.
func NewContext(scale workloads.Scale) *Context {
	return &Context{
		Scale:     scale,
		Stride:    100,
		progs:     cache.New[string, *isa.Program](),
		profiles:  cache.New[string, *profile.Profile](),
		distills:  cache.New[string, *distill.Result](),
		baselines: cache.New[string, *baseline.Result](),
	}
}

// CacheMetrics returns per-artifact-kind cache counters.
func (c *Context) CacheMetrics() map[string]cache.Metrics {
	return map[string]cache.Metrics{
		"programs":      c.progs.Metrics(),
		"profiles":      c.profiles.Metrics(),
		"distillations": c.distills.Metrics(),
		"baselines":     c.baselines.Metrics(),
	}
}

// ctx returns the context governing sweeps (Background when unset).
func (c *Context) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// fanOut computes fn(i) for every index in [0,n) on at most c.Workers
// goroutines (one when Workers is zero or one) and returns the results in
// index order, so callers render output independent of completion order —
// the discipline of MSSP's in-order commit unit. The first failure, or the
// end of c.Ctx, stops every point not yet started; points that failed or
// never ran keep zero values in their slots. The error returned is the
// lowest-index one that is not a cancellation, or the cancellation itself
// when nothing else failed; a panicking point fails with its panic.
func fanOut[T any](c *Context, n int, fn func(i int) (T, error)) ([]T, error) {
	ctx, cancel := context.WithCancel(c.ctx())
	defer cancel()
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(max(c.Workers, 1), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = ctx.Err(); errs[i] == nil {
					out[i], errs[i] = sweepPoint(fn, i)
				}
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return out, err
		}
		if first == nil {
			first = err
		}
	}
	return out, first
}

// sweepPoint runs fn(i), turning a panic into the point's error.
func sweepPoint[T any](fn func(i int) (T, error), i int) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("bench: sweep point %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	return fn(i)
}

// Workloads returns the selected workload list.
func (c *Context) Workloads() []*workloads.Workload {
	all := workloads.All()
	if len(c.Names) == 0 {
		return all
	}
	want := map[string]bool{}
	for _, n := range c.Names {
		want[n] = true
	}
	var out []*workloads.Workload
	for _, w := range all {
		if want[w.Name] {
			out = append(out, w)
		}
	}
	return out
}

// SweepWorkloads returns the representative subset used by parameter
// sweeps (full-suite sweeps would multiply run time without changing the
// shapes; the harness prints which workloads a sweep covered).
func (c *Context) SweepWorkloads() []*workloads.Workload {
	if len(c.Names) > 0 {
		return c.Workloads()
	}
	subset := []string{"bitops", "compress", "graphwalk", "interp", "sortwin"}
	var out []*workloads.Workload
	for _, n := range subset {
		w, err := workloads.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, w)
	}
	return out
}

// Prog builds (and caches) a workload's program at the given scale.
func (c *Context) Prog(w *workloads.Workload, s workloads.Scale) *isa.Program {
	p, _ := c.progs.GetOrCompute(cache.KeyOf("prog", w.Name, s), func() (*isa.Program, error) {
		return w.Build(s), nil
	})
	return p
}

// Profile collects (and caches) a training profile at the given stride.
func (c *Context) Profile(w *workloads.Workload, stride uint64) (*profile.Profile, error) {
	return c.profiles.GetOrCompute(cache.KeyOf("profile", w.Name, stride), func() (*profile.Profile, error) {
		train := c.Prog(w, workloads.Train)
		p, err := profile.Collect(train, profile.Options{Stride: stride})
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", w.Name, err)
		}
		return p, nil
	})
}

// Distill produces (and caches) a distillation at the given stride and
// bias threshold, with otherwise-default options.
func (c *Context) Distill(w *workloads.Workload, stride uint64, threshold float64) (*distill.Result, error) {
	return c.distills.GetOrCompute(cache.KeyOf("distill", w.Name, stride, threshold), func() (*distill.Result, error) {
		prof, err := c.Profile(w, stride)
		if err != nil {
			return nil, err
		}
		opts := distill.DefaultOptions()
		opts.BiasThreshold = threshold
		d, err := distill.Distill(c.Prog(w, workloads.Train), prof, opts)
		if err != nil {
			return nil, fmt.Errorf("distill %s: %w", w.Name, err)
		}
		return d, nil
	})
}

// Baseline runs (and caches) the sequential baseline at the context scale.
func (c *Context) Baseline(w *workloads.Workload) (*baseline.Result, error) {
	return c.baselines.GetOrCompute(cache.KeyOf("baseline", w.Name, c.Scale), func() (*baseline.Result, error) {
		b, err := baseline.Run(c.Prog(w, c.Scale), baseline.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", w.Name, err)
		}
		return b, nil
	})
}

// MSSPConfig returns the default machine configuration with the task
// spacing matched to the context stride.
func (c *Context) MSSPConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MinTaskSpacing = c.Stride
	return cfg
}

// RunMSSP executes one workload under MSSP at the context scale.
func (c *Context) RunMSSP(w *workloads.Workload, d *distill.Result, cfg core.Config) (*core.Result, error) {
	p := c.Prog(w, c.Scale)
	if c.Instrument != nil {
		c.Instrument(w.Name, &cfg)
	}
	m, err := core.New(p, d, cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("mssp %s: %w", w.Name, err)
	}
	return res, nil
}

// RunDefault runs a workload with the context's default distillation and
// machine, returning the MSSP result and the baseline.
func (c *Context) RunDefault(w *workloads.Workload) (*core.Result, *baseline.Result, error) {
	d, err := c.Distill(w, c.Stride, distill.DefaultOptions().BiasThreshold)
	if err != nil {
		return nil, nil, err
	}
	res, err := c.RunMSSP(w, d, c.MSSPConfig())
	if err != nil {
		return nil, nil, err
	}
	b, err := c.Baseline(w)
	if err != nil {
		return nil, nil, err
	}
	return res, b, nil
}

// Attribution splits a run's cycles among the machine's four limiters: the
// master naming the next task too slowly, slave computation, commit-unit
// serialization, and misspeculation recovery (squash penalties plus
// sequential fallback). It is the per-experiment cycle-attribution summary
// behind E9's execution-time breakdown; parallel-simulator evaluations live
// or die by this attribution, so it is exported for every caller
// (cmd/msspsim prints it per run).
type Attribution struct {
	// Master is commit-to-commit gap time limited by the master.
	Master float64
	// Slave is gap time limited by slave computation.
	Slave float64
	// Commit is gap time limited by verify/commit serialization.
	Commit float64
	// Recovery is squash penalties plus fallback execution time.
	Recovery float64
}

// Attribute extracts the cycle attribution from a run's metrics.
func Attribute(m core.Metrics) Attribution {
	return Attribution{
		Master:   m.MasterBoundCycles,
		Slave:    m.SlaveBoundCycles,
		Commit:   m.CommitBoundCycles,
		Recovery: m.RecoveryCycles,
	}
}

// Total returns the attributed cycle sum.
func (a Attribution) Total() float64 {
	return a.Master + a.Slave + a.Commit + a.Recovery
}

// Fractions returns each component as a fraction of the attributed total.
// A non-positive total yields all-zero fractions.
func (a Attribution) Fractions() (master, slave, commit, recovery float64) {
	total := a.Total()
	if total <= 0 {
		total = 1
	}
	return a.Master / total, a.Slave / total, a.Commit / total, a.Recovery / total
}

// String renders the attribution as percentage shares for log lines.
func (a Attribution) String() string {
	fm, fs, fc, fr := a.Fractions()
	return fmt.Sprintf("master-bound %.1f%%  slave-bound %.1f%%  commit-bound %.1f%%  recovery %.1f%%",
		100*fm, 100*fs, 100*fc, 100*fr)
}

// Experiment is one table or figure reproduction.
type Experiment struct {
	// ID is the experiment identifier (E1..E12).
	ID string
	// Title names what the experiment reproduces.
	Title string
	// Run executes the experiment and renders its table/figure.
	Run func(c *Context) (string, error)
}

var experiments []*Experiment

func registerExperiment(e *Experiment) { experiments = append(experiments, e) }

// All returns every experiment in id order.
func All() []*Experiment {
	out := append([]*Experiment(nil), experiments...)
	sort.Slice(out, func(i, j int) bool {
		// E2 < E10 requires numeric comparison.
		return expNum(out[i].ID) < expNum(out[j].ID)
	})
	return out
}

func expNum(id string) int {
	n := 0
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID returns the experiment with the given id.
func ByID(id string) (*Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", id)
}
