// Package workloads provides the benchmark suite for the MSSP experiments:
// synthetic MIR programs modeled on the dominant kernels of the SPECint2000
// programs the original MSSP evaluation used. SPEC binaries and inputs are
// licensed artifacts and MIR is not Alpha, so each stand-in reproduces the
// *behavioural properties* MSSP's performance turns on — branch bias
// structure, rare-but-expensive paths, pointer chasing vs. streaming access,
// indirect-jump density — rather than the program text.
//
// Every workload is deterministic: inputs are generated from fixed seeds at
// build time and baked into the program image, and each program accumulates
// a checksum into its "out" symbol so tests can assert exact results.
//
// Each workload builds at two scales, mirroring SPEC's train/ref inputs:
// Train is profiled to drive distillation, Ref is what experiments measure.
// Using different inputs for profiling and measurement is what makes
// distillation genuinely speculative.
package workloads

import (
	"fmt"
	"sort"

	"mssp/internal/asm"
	"mssp/internal/isa"
)

// Scale selects an input size.
type Scale int

const (
	// Train is the small profiling input.
	Train Scale = iota
	// Ref is the measured reference input.
	Ref
)

func (s Scale) String() string {
	if s == Train {
		return "train"
	}
	return "ref"
}

// ParseScale returns the scale whose String is name: exactly "train" or
// "ref". Anything else is an error naming the value, so a mistyped flag
// cannot fall through to the minutes-long Ref suite.
func ParseScale(name string) (Scale, error) {
	for _, s := range []Scale{Train, Ref} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("workloads: unknown scale %q (want train or ref)", name)
}

// Workload is one benchmark program generator.
type Workload struct {
	// Name is the short identifier used in tables.
	Name string
	// Models names the SPECint2000 program whose kernel shape this
	// stand-in reproduces.
	Models string
	// Description summarizes the kernel.
	Description string
	// Build assembles the program with the given scale's input baked in.
	Build func(s Scale) *isa.Program
}

var registry []*Workload

func register(w *Workload) { registry = append(registry, w) }

// All returns every workload, ordered by name.
func All() []*Workload {
	out := append([]*Workload(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the workload names, ordered.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

// ByName returns the named workload.
func ByName(name string) (*Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
}

// rng is a splitmix64 generator: tiny, seeded, deterministic across runs.
type rng uint64

func newRNG(seed uint64) *rng { r := rng(seed); return &r }

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// fillData writes values into the program image starting at the named
// symbol, which must lie inside a data segment with room for them.
func fillData(p *isa.Program, sym string, values []uint64) {
	base := p.MustSymbol(sym)
	for si := range p.Data {
		seg := &p.Data[si]
		if base >= seg.Base && base < seg.End() {
			off := base - seg.Base
			if off+uint64(len(values)) > uint64(len(seg.Words)) {
				panic(fmt.Sprintf("workloads: %d values overflow segment at %q", len(values), sym))
			}
			copy(seg.Words[off:], values)
			return
		}
	}
	panic(fmt.Sprintf("workloads: symbol %q not inside a data segment", sym))
}

// build assembles src and fills the named arrays.
func build(src string, arrays map[string][]uint64) *isa.Program {
	p := asm.MustAssemble(src)
	for sym, vals := range arrays {
		fillData(p, sym, vals)
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// sizes returns n for the scale: train and ref element counts.
func sizes(s Scale, train, ref int) int {
	if s == Train {
		return train
	}
	return ref
}
