package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mssp/internal/chaos"
	"mssp/internal/core"
	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/parallel"
	"mssp/internal/profile"
	"mssp/internal/state"
	"mssp/internal/workloads"
)

const (
	engineParallel = "parallel"
	engineDet      = "det"

	// maxSteps bounds every sequential run; every workload halts far below.
	maxSteps = 10_000_000_000

	// chaos-soak soaks a fixed corpus of chaos seeds, 1..chaosCorpusSize,
	// shuffled by the run's seed into batches of chaosBatch; the traced run
	// splits the first chaosProbeSeeds of that order into layers. The corpus
	// is fixed and small enough for every run to cover all of it, because
	// peak memory and batch rates hinge on a few rare seeds: a corpus that
	// changed with the seed would move them from run to run.
	chaosCorpusSize = 4_000
	chaosBatch      = 250
	chaosProbeSeeds = 500
)

// workload is one benchmark workload. BENCHMARK.json and README.md record
// why each was chosen.
type workload struct {
	name  string
	setup func(o options, lt *layerTimes) (suite, error)
}

// catalog lists the workloads in the order a run without --workload takes.
var catalog = []*workload{
	// The parallel master and the fork hand-off are the critical path: 25k
	// short tasks, a handful of squashes, a small live-in footprint.
	{"par-lean", func(o options, lt *layerTimes) (suite, error) {
		scale := workloads.Ref
		if o.smoke {
			scale = workloads.Train
		}
		return newEngineSuite(o, lt, engineParallel, parConfig(), scale, "mtf")
	}},
	// The state, mem and GC layers dominate: ~23 live-in words per task,
	// squash recovery with reseeds, and a ~250 MB heap.
	{"par-heavy", func(o options, lt *layerTimes) (suite, error) {
		if o.smoke {
			return newEngineSuite(o, lt, engineParallel, parConfig(), workloads.Train, "compress")
		}
		return newEngineSuite(o, lt, engineParallel, parConfig(), workloads.Train, "graphwalk", "hashtable")
	}},
	// The experiments path: the deterministic machine over the whole suite,
	// with no coordinator or ring, so parallel-engine changes should not
	// move it.
	{"det-suite", func(o options, lt *layerTimes) (suite, error) {
		names := workloads.Names()
		if o.smoke {
			names = []string{"bitops", "compress"}
		}
		return newEngineSuite(o, lt, engineDet, core.DefaultConfig(), workloads.Train, names...)
	}},
	// Thousands of tiny fault-injected programs: per-seed prepare, a
	// goroutine spawn per engine run, and refine/model audits.
	{"chaos-soak", func(o options, _ *layerTimes) (suite, error) {
		return newChaosSuite(o)
	}},
}

func byName(name string) *workload {
	for _, w := range catalog {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range catalog {
		names = append(names, w.name)
	}
	return names
}

// parConfig is the parallel workloads' machine: the experiments' default
// configuration with two slaves. The count is fixed, not taken from the
// host, so every host does the same work.
func parConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Slaves = 2
	return cfg
}

// suite is a workload after setup.
type suite interface {
	// run executes sample i and checks it against the sequential reference.
	// The caller starts the next sample only when this one returns. A
	// non-nil st wall-stamps every speculative engine run of the sample.
	run(i int, st *stamps) sample
	// seq times the sequential core over sample i's programs.
	seq(i int) (insts uint64, d time.Duration, err error)
	// traced returns the programs and engine the traced layer passes
	// replay, with the setup-layer times of their preparation: the suite's
	// own, or the chaos probe's when the suite prepares nothing itself.
	traced(own layerTimes, probe *probe) (items []*item, engine string, lt layerTimes)
}

// sample is one timed closed-loop sample.
type sample struct {
	wall  time.Duration
	insts uint64 // sequential instructions of the sample's programs
	runs  int    // checked operations: engine runs or chaos seeds
	fails []string
}

// prepSpec says how to build and prepare one program.
type prepSpec struct {
	name    string
	build   func() (orig, train *isa.Program)
	profile profile.Options
	distill distill.Options
}

// item is one prepared program: its distillation and engine configuration,
// the predecoded tables the traced passes run, and its sequential reference.
type item struct {
	name string
	orig *isa.Program
	dist *distill.Result
	cfg  core.Config
	// seqCode is the fused original program the sequential control runs;
	// slaveCode adds the anchor set, as the engines' slaves run it; and
	// masterCode is the fused, elided distilled program of the parallel
	// master.
	seqCode, slaveCode, masterCode *isa.DecodedProgram
	steps                          uint64 // reference instruction count
	digest                         uint64 // reference final-state digest
}

// layerTimes accumulates the time preparation spends in each setup layer.
type layerTimes struct {
	build, profile, distill, predecode, seq time.Duration
	programs                                int
}

// prepare builds, profiles, distills and predecodes one program and runs its
// sequential reference, adding each layer's time to lt.
func prepare(spec prepSpec, cfg core.Config, lt *layerTimes) (*item, error) {
	t0 := time.Now()
	orig, train := spec.build()
	t1 := time.Now()
	prof, err := profile.Collect(train, spec.profile)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	t2 := time.Now()
	dist, err := distill.Distill(train, prof, spec.distill)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	t3 := time.Now()
	it := &item{
		name:       spec.name,
		orig:       orig,
		dist:       dist,
		cfg:        cfg,
		slaveCode:  fuse.Predecode(orig, fuse.Options{Anchors: dist.AnchorSet()}),
		masterCode: fuse.Predecode(dist.Prog, fuse.Options{Elide: true}),
	}
	t4 := time.Now()
	it.seqCode = fuse.Predecode(orig, fuse.Options{})
	if it.steps, it.digest, err = reference(orig, it.seqCode, cfg.SP); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	t5 := time.Now()
	lt.build += t1.Sub(t0)
	lt.profile += t2.Sub(t1)
	lt.distill += t3.Sub(t2)
	lt.predecode += t4.Sub(t3)
	lt.seq += t5.Sub(t4)
	lt.programs++
	return it, nil
}

// reference runs p to halt on the sequential core and returns its
// instruction count and final-state digest.
func reference(p *isa.Program, code *isa.DecodedProgram, sp uint64) (steps, digest uint64, err error) {
	s := state.NewFromProgram(p, sp)
	res, err := cpu.NewCode(code).RunState(s, maxSteps)
	if err != nil {
		return 0, 0, fmt.Errorf("sequential reference: %w", err)
	}
	if !res.Halted {
		return 0, 0, fmt.Errorf("sequential reference did not halt")
	}
	return res.Steps, s.Digest(), nil
}

// seqWindow is the least sequential-core time one reading of the sequential
// control accumulates. One pass over a small workload lasts a few
// milliseconds, and at that scale the reference host scattered repeated
// timings of the same program by 30–40%.
const seqWindow = 100 * time.Millisecond

// seqProg is one program of the sequential control.
type seqProg struct {
	name  string
	prog  *isa.Program
	code  *isa.DecodedProgram
	steps uint64 // reference instruction count
}

// seqControl times the sequential core over progs, each run from its initial
// state, passing over all of them until at least seqWindow has accumulated.
func seqControl(progs []seqProg) (insts uint64, d time.Duration, err error) {
	sp := core.DefaultConfig().SP
	for d < seqWindow {
		for _, p := range progs {
			s := state.NewFromProgram(p.prog, sp)
			c := cpu.NewCode(p.code)
			start := time.Now()
			res, err := c.RunState(s, maxSteps)
			d += time.Since(start)
			if err == nil && res.Steps != p.steps {
				err = fmt.Errorf("executed %d instructions, reference %d", res.Steps, p.steps)
			}
			if err != nil {
				return 0, 0, fmt.Errorf("%s: sequential control: %w", p.name, err)
			}
			insts += res.Steps
		}
	}
	return insts, d, nil
}

// runEngine runs one program on the named engine, returning the final state,
// the metrics and (deterministic engine only) the modeled cycles.
func runEngine(engine string, it *item, cfg core.Config) (*state.State, core.Metrics, float64, error) {
	if engine == engineDet {
		m, err := core.New(it.orig, it.dist, cfg)
		if err != nil {
			return nil, core.Metrics{}, 0, err
		}
		res, err := m.Run()
		if err != nil {
			return nil, core.Metrics{}, 0, err
		}
		return res.Final, res.Metrics, res.Cycles, nil
	}
	res, err := parallel.Run(it.orig, it.dist, cfg)
	if err != nil {
		return nil, core.Metrics{}, 0, err
	}
	return res.Final, res.Metrics, 0, nil
}

// check compares one engine run with the item's sequential reference.
func check(it *item, final *state.State, committed uint64, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", it.name, err)
	}
	if d := final.Digest(); committed != it.steps || d != it.digest {
		return fmt.Errorf("%s: committed %d instructions ending in digest %#x, reference %d ending in %#x",
			it.name, committed, d, it.steps, it.digest)
	}
	return nil
}

// engineSuite runs repository workloads on one engine; a sample runs every
// program once, in a seed-permuted order.
type engineSuite struct {
	engine string
	items  []*item
	seed   uint64
}

// newEngineSuite prepares the named repository workloads the way the
// experiments do (mssp.Prepare's defaults): measured at scale, profiled and
// distilled at Train.
func newEngineSuite(o options, lt *layerTimes, engine string, cfg core.Config, scale workloads.Scale, names ...string) (suite, error) {
	s := &engineSuite{engine: engine, seed: o.seed}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		it, err := prepare(prepSpec{
			name: name,
			build: func() (*isa.Program, *isa.Program) {
				train := w.Build(workloads.Train)
				if scale == workloads.Train {
					return train, train
				}
				return w.Build(scale), train
			},
			profile: profile.Options{Stride: 100},
			distill: distill.DefaultOptions(),
		}, cfg, lt)
		if err != nil {
			return nil, err
		}
		s.items = append(s.items, it)
	}
	return s, nil
}

// order returns sample i's program order: a permutation drawn from the seed,
// so the seed varies the order without changing the work.
func (s *engineSuite) order(i int) []*item {
	out := append([]*item(nil), s.items...)
	r := rand.New(rand.NewSource(int64(s.seed*1_000_003 + uint64(i))))
	r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

func (s *engineSuite) run(i int, st *stamps) sample {
	order := s.order(i)
	finals := make([]*state.State, len(order))
	committed := make([]uint64, len(order))
	errs := make([]error, len(order))
	start := time.Now()
	for k, it := range order {
		cfg := it.cfg
		if st != nil {
			st.attach(&cfg)
		}
		var m core.Metrics
		finals[k], m, _, errs[k] = runEngine(s.engine, it, cfg)
		committed[k] = m.CommittedInsts
	}
	smp := sample{wall: time.Since(start), runs: len(order)}
	for k, it := range order {
		smp.insts += it.steps
		if err := check(it, finals[k], committed[k], errs[k]); err != nil {
			smp.fails = append(smp.fails, err.Error())
		}
	}
	return smp
}

func (s *engineSuite) seq(int) (uint64, time.Duration, error) {
	progs := make([]seqProg, len(s.items))
	for k, it := range s.items {
		progs[k] = seqProg{it.name, it.orig, it.seqCode, it.steps}
	}
	return seqControl(progs)
}

func (s *engineSuite) traced(own layerTimes, _ *probe) ([]*item, string, layerTimes) {
	return s.items, s.engine, own
}

// chaosSuite runs the chaos differential harness; a sample is one batch of
// seeds, each checked against the suite's own sequential reference as well
// as the harness's verdict.
type chaosSuite struct {
	seeds []uint64 // the corpus in this run's order
	refs  []seqRef // sequential reference per entry of seeds
	batch int
}

type seqRef struct{ steps, digest uint64 }

// chaosOptions is the soak configuration: both engines, full fault
// intensity, the model shadow capped as msspbench's soak caps it.
func chaosOptions(seed uint64) chaos.Options {
	return chaos.Options{Seed: seed, Engine: chaos.EngineParallel, FaultIntensity: 1, ModelCheckCap: 64}
}

// chaosCorpus returns the soak's seed corpus in the order the run's seed
// shuffles it into.
func chaosCorpus(o options) []uint64 {
	n := chaosCorpusSize
	if o.smoke {
		n = 20
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	rand.New(rand.NewSource(int64(o.seed))).Shuffle(n, func(a, b int) { seeds[a], seeds[b] = seeds[b], seeds[a] })
	return seeds
}

// newChaosSuite generates every program of the corpus and records its
// sequential reference.
func newChaosSuite(o options) (suite, error) {
	s := &chaosSuite{seeds: chaosCorpus(o), batch: chaosBatch}
	if o.smoke {
		s.batch = 10
	}
	s.refs = make([]seqRef, len(s.seeds))
	sp := core.DefaultConfig().SP
	for k, seed := range s.seeds {
		g := chaos.GenerateOpts(seed, chaos.GenOptions{})
		steps, digest, err := reference(g.Prog, fuse.Predecode(g.Prog, fuse.Options{}), sp)
		if err != nil {
			return nil, fmt.Errorf("chaos seed %d: %w", seed, err)
		}
		s.refs[k] = seqRef{steps, digest}
	}
	return s, nil
}

// batchStart returns the corpus position of sample i's first seed; samples
// cycle through the corpus.
func (s *chaosSuite) batchStart(i int) int {
	return i % (len(s.seeds) / s.batch) * s.batch
}

func (s *chaosSuite) run(i int, st *stamps) sample {
	lo := s.batchStart(i)
	opts := chaosOptions(0)
	if st != nil {
		// The deterministic legs are the harness's oracle; the workload's
		// speculative engine is the parallel one.
		opts.Observe = func(leg string, cfg *core.Config) {
			if strings.HasPrefix(leg, "par-") {
				st.attach(cfg)
			}
		}
	}
	smp := sample{runs: s.batch}
	start := time.Now()
	for k := lo; k < lo+s.batch; k++ {
		opts.Seed = s.seeds[k]
		rep := chaos.Run(opts)
		ref := s.refs[k]
		if !rep.OK || rep.SeqSteps != ref.steps || rep.SeqDigest != ref.digest {
			smp.fails = append(smp.fails, fmt.Sprintf("chaos seed %d: ok=%v steps %d digest %#x, reference %d %#x %v",
				opts.Seed, rep.OK, rep.SeqSteps, rep.SeqDigest, ref.steps, ref.digest, rep.Failures))
		}
		smp.insts += ref.steps
	}
	smp.wall = time.Since(start)
	return smp
}

func (s *chaosSuite) seq(i int) (uint64, time.Duration, error) {
	lo := s.batchStart(i)
	progs := make([]seqProg, s.batch)
	for k := range progs {
		seed := s.seeds[lo+k]
		g := chaos.GenerateOpts(seed, chaos.GenOptions{})
		progs[k] = seqProg{fmt.Sprintf("chaos seed %d", seed), g.Prog, fuse.Predecode(g.Prog, fuse.Options{}), s.refs[lo+k].steps}
	}
	return seqControl(progs)
}

func (s *chaosSuite) traced(_ layerTimes, p *probe) ([]*item, string, layerTimes) {
	return p.items, engineParallel, p.lt
}
