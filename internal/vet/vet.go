// Package vet statically checks MIR programs for structural bugs and,
// given distiller artifacts, for violations of the distillation contract.
//
// Every check is a rule with a stable ID (MV001, MV002, ...) documented in
// docs/ANALYSIS.md. Rules come in two flavors:
//
//   - Plain rules judge a program as something the sequential machine will
//     run from a zeroed register file: jumps must stay on the code
//     segment, a reachable halt must exist, FORK markers must not appear.
//
//   - Distilled rules judge a program as distiller output: FORK markers
//     must agree with the anchor table, call expansion must have preserved
//     original link values, and reachability counts every FORK as a root
//     because the master is reseeded at anchors.
//
// The split matters because distilled code is *hint* code: it may spin
// forever (the commit unit halts the machine, not the master), and it runs
// from arbitrary architected state (so initialization analysis is
// meaningless there). Applying the plain rules to distilled output, or
// vice versa, produces false findings by design, not by accident.
package vet

import (
	"fmt"
	"sort"

	"mssp/internal/cfg"
	"mssp/internal/dataflow"
	"mssp/internal/isa"
)

// Finding is one rule violation, anchored to a code address.
type Finding struct {
	Rule string // stable rule ID, e.g. "MV002"
	PC   uint64 // code address the finding is anchored to
	Msg  string // human-readable detail
}

// String renders the finding as "RULE pc=N: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s pc=%d: %s", f.Rule, f.PC, f.Msg)
}

// Distilled carries the distiller artifacts the distilled-mode rules need.
// Both fields come straight from distill.Result.
type Distilled struct {
	// Anchors is the surviving task-boundary set, original addresses.
	Anchors []uint64
	// OrigToDist maps surviving original addresses to distilled ones.
	OrigToDist map[uint64]uint64
}

// Rule describes one catalog entry. The catalog is exported so the
// documentation linter can cross-check every ID against docs/ANALYSIS.md.
type Rule struct {
	// ID is the stable identifier findings carry, e.g. "MV003".
	ID string
	// Name is the short kebab-case rule name, e.g. "unreachable-block".
	Name string
	// Summary is a one-line description of what the rule reports.
	Summary string
	// Distilled marks rules that apply only to distiller output.
	Distilled bool
	// Both marks rules that apply to plain programs and distiller output
	// alike; a rule with neither flag set applies to plain programs only.
	Both bool
}

// Rules is the complete check catalog, in ID order.
var Rules = []Rule{
	{ID: "MV001", Name: "jump-off-code", Both: true,
		Summary: "a direct branch or jump targets an address outside the code segment"},
	{ID: "MV002", Name: "write-to-r0", Both: true,
		Summary: "a non-jump instruction writes the hardwired zero register"},
	{ID: "MV003", Name: "unreachable-block", Both: true,
		Summary: "a non-padding basic block is unreachable from every entry"},
	{ID: "MV004", Name: "uninit-read",
		Summary: "an instruction reads a register no path from entry initializes"},
	{ID: "MV005", Name: "fork-invariant", Both: true,
		Summary: "FORK markers disagree with the anchor table (or appear in plain code)"},
	{ID: "MV006", Name: "link-preservation", Distilled: true,
		Summary: "distilled code contains a raw link-writing call the expander should have rewritten"},
	{ID: "MV007", Name: "no-reachable-halt",
		Summary: "no halt instruction is reachable; the program cannot terminate"},
	{ID: "MV008", Name: "fused-bijection", Both: true,
		Summary: "a fused superinstruction's expansion does not re-encode to the original instruction words"},
	{ID: "MV009", Name: "secret-indexed-access", Both: true,
		Summary: "a load or store address is computed from secret-derived data (Spectre-shaped leak)"},
	{ID: "MV010", Name: "tainted-speculative-branch", Both: true,
		Summary: "a branch condition (or indirect-jump target) depends on secret-derived data in speculatively executed code"},
	{ID: "MV011", Name: "taint-to-committed-state", Both: true,
		Summary: "secret-derived data can survive into verified task live-outs (a tainted store, or a tainted register live across an anchor)"},
	{ID: "MV012", Name: "stranded-block", Distilled: true,
		Summary: "a block the distilled program reaches from its entry can reach no halt (a loop exit pruned away)"},
}

// TaintRules lists the IDs of the taint rules CheckTaint reports, the
// subset of Rules catalogued in docs/SECURITY.md.
var TaintRules = []string{"MV009", "MV010", "MV011"}

// GoRules catalogs the Go-source determinism rules enforced by the
// companion analyzer (cmd/msspvet/goanalysis). They live here so the
// documentation linter can cross-check the full rule namespace in one
// place; the analyzer itself is dependency-free and does not import this
// package.
var GoRules = []Rule{
	{ID: "GA001", Name: "no-wall-clock",
		Summary: "time.Now in a determinism path (internal/core, internal/chaos, internal/distill)"},
	{ID: "GA002", Name: "no-global-rand",
		Summary: "package-level math/rand source in a determinism path; seeded rand.New is fine"},
	{ID: "GA003", Name: "squash-taxonomy",
		Summary: "comparison or switch on a raw string equal to a core.Squash* value"},
	{ID: "GA004", Name: "no-bare-go",
		Summary: "go statement in internal/parallel outside the spawn helper; goroutines must stay joinable at shutdown"},
	{ID: "GA005", Name: "rule-catalog-drift",
		Summary: "a rule ID appears in source but not in the vet catalog or the docs/ANALYSIS.md rule tables"},
}

// Check runs every applicable rule over p. Pass dist non-nil to vet p as
// distiller output (switching rule modes as described in the package doc).
// Findings come back sorted by address then rule ID; an error means the
// program could not be analyzed at all (invalid encoding, broken CFG).
//
// The instruction-shape rules run before CFG construction: a program with
// off-segment jumps (MV001) has no buildable CFG at all, so the
// graph-dependent rules are skipped for it rather than erroring out.
func Check(p *isa.Program, dist *Distilled) ([]Finding, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("vet: %w", err)
	}
	c := &checker{p: p, dist: dist}

	c.checkInstructions() // MV001, MV002, MV006 (single pass)
	c.checkForks()        // MV005 (no graph needed)

	offCode := false
	for _, f := range c.out {
		if f.Rule == "MV001" {
			offCode = true
		}
	}
	if !offCode {
		g, err := cfg.Build(p)
		if err != nil {
			return nil, fmt.Errorf("vet: %w", err)
		}
		c.g = g
		c.reach = c.reachable()
		c.checkUnreachable() // MV003
		c.checkUninit()      // MV004
		c.checkHalt()        // MV007
		c.checkStranded()    // MV012
	}

	sort.Slice(c.out, func(i, j int) bool {
		if c.out[i].PC != c.out[j].PC {
			return c.out[i].PC < c.out[j].PC
		}
		return c.out[i].Rule < c.out[j].Rule
	})
	return c.out, nil
}

type checker struct {
	p     *isa.Program
	g     *cfg.Graph
	dist  *Distilled
	reach map[uint64]bool // reachable block starts
	out   []Finding
}

func (c *checker) report(rule string, pc uint64, format string, args ...any) {
	c.out = append(c.out, Finding{Rule: rule, PC: pc, Msg: fmt.Sprintf(format, args...)})
}

// reachable computes the reachable block set. For plain programs this is
// the CFG's own notion (everything, under indirection). For distilled
// output every FORK marker is an additional root: the master is reseeded
// at anchors after squashes, so anchor blocks are live entry points even
// when no distilled edge reaches them (e.g. kept cold code).
func (c *checker) reachable() map[uint64]bool {
	if c.dist == nil {
		return c.g.Reachable()
	}
	seen := make(map[uint64]bool, len(c.g.Blocks))
	if c.g.HasIndirect {
		for _, b := range c.g.Blocks {
			seen[b.Start] = true
		}
		return seen
	}
	var stack []uint64
	push := func(pc uint64) {
		if b := c.g.BlockFor(pc); b != nil && !seen[b.Start] {
			seen[b.Start] = true
			stack = append(stack, b.Start)
		}
	}
	push(c.p.Entry)
	for pc := c.p.Code.Base; pc < c.p.Code.End(); pc++ {
		if c.p.InstAt(pc).Op == isa.OpFork {
			push(pc)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, succ := range c.g.ByStart[s].Succs {
			push(succ)
		}
	}
	return seen
}

func (c *checker) reachableAt(pc uint64) bool {
	b := c.g.BlockFor(pc)
	return b != nil && c.reach[b.Start]
}

// checkInstructions runs the single-instruction rules in one sweep.
func (c *checker) checkInstructions() {
	for pc := c.p.Code.Base; pc < c.p.Code.End(); pc++ {
		in := c.p.InstAt(pc)

		// MV001: direct control transfers must land on the code segment.
		// (Indirect targets and fork markers are other rules' business.)
		if in.Op.IsBranch() || in.Op == isa.OpJal {
			if t := uint64(in.Imm); !c.p.InCode(t) {
				c.report("MV001", pc, "%v targets %d, outside code [%d,%d)",
					in, t, c.p.Code.Base, c.p.Code.End())
			}
		}

		// MV002: r0 reads as zero, so writing it is always a lost store.
		// jal/jalr with rd=r0 is the idiom for a link-less jump — allowed.
		if in.Op.HasRd() && in.Rd == isa.RegZero &&
			in.Op != isa.OpJal && in.Op != isa.OpJalr {
			c.report("MV002", pc, "%v writes r0, which always reads as zero", in)
		}

		// MV006: the distiller expands every link-writing call into
		// "ldi rd, <orig return>; jump" so slaves inherit original-program
		// link values. A surviving raw call means the expansion was
		// skipped. The one legal exception is jalr rd==rs1, where the link
		// register is the jump base and cannot be materialized first (a
		// documented, verify-caught unsoundness).
		if c.dist != nil {
			switch {
			case in.Op == isa.OpJal && in.Rd != isa.RegZero:
				c.report("MV006", pc, "%v links a distilled address; calls must be expanded", in)
			case in.Op == isa.OpJalr && in.Rd != isa.RegZero && in.Rd != in.Rs1:
				c.report("MV006", pc, "%v links a distilled address; calls must be expanded", in)
			}
		}
	}
}

// checkUnreachable reports MV003 for blocks no entry can reach. Pure-nop
// blocks are exempt: they are padding, not lost code. Under indirection
// every block is considered reachable, so the rule is naturally silent.
func (c *checker) checkUnreachable() {
	for _, b := range c.g.Blocks {
		if c.reach[b.Start] {
			continue
		}
		allNop := true
		for pc := b.Start; pc < b.End; pc++ {
			if c.p.InstAt(pc).Op != isa.OpNop {
				allNop = false
				break
			}
		}
		if allNop {
			continue
		}
		c.report("MV003", b.Start, "block [%d,%d) is unreachable from every entry", b.Start, b.End)
	}
}

// checkUninit reports MV004: a read of a register that no path from entry
// writes first. Plain programs start from a zeroed register file with only
// SP meaningfully seeded, so such a read sees the default zero — almost
// always a bug in the program, and always worth a look. The rule is
// plain-mode only (a distilled master runs from arbitrary architected
// state) and silent under indirection (may-init degrades to everything).
func (c *checker) checkUninit() {
	if c.dist != nil || c.g.HasIndirect {
		return
	}
	mi := dataflow.MayInit(c.g, dataflow.RegSet(0).Add(uint8(isa.RegSP)))
	for pc := c.p.Code.Base; pc < c.p.Code.End(); pc++ {
		if !c.reachableAt(pc) {
			continue // dead code is MV003's finding, not this rule's
		}
		in := c.p.InstAt(pc)
		before := mi.Before(pc)
		check := func(r uint8) {
			if r == isa.RegZero || r == isa.RegSP {
				return
			}
			if !before.Has(r) {
				c.report("MV004", pc, "%v reads r%d, which no path from entry initializes", in, r)
			}
		}
		if in.Op.ReadsRs1() {
			check(in.Rs1)
		}
		if in.Op.ReadsRs2() {
			check(in.Rs2)
		}
	}
}

// checkForks reports MV005. In plain mode any FORK is a finding: markers
// are a distiller artifact and the sequential machine treats them as
// no-ops, so one in source is a confused program. In distilled mode the
// markers and the anchor table must agree exactly in both directions:
// every anchor's distilled address holds a FORK carrying that anchor, and
// every FORK sits at the address its anchor maps to.
func (c *checker) checkForks() {
	if c.dist == nil {
		for pc := c.p.Code.Base; pc < c.p.Code.End(); pc++ {
			if c.p.InstAt(pc).Op == isa.OpFork {
				c.report("MV005", pc, "FORK marker in a plain program")
			}
		}
		return
	}
	anchors := make(map[uint64]bool, len(c.dist.Anchors))
	for _, a := range c.dist.Anchors {
		anchors[a] = true
	}
	for pc := c.p.Code.Base; pc < c.p.Code.End(); pc++ {
		in := c.p.InstAt(pc)
		if in.Op != isa.OpFork {
			continue
		}
		orig := uint64(in.Imm)
		if !anchors[orig] {
			c.report("MV005", pc, "FORK carries %d, which is not in the anchor table", orig)
			continue
		}
		if d, ok := c.dist.OrigToDist[orig]; !ok || d != pc {
			c.report("MV005", pc, "FORK for anchor %d sits at %d but the anchor maps to %d", orig, pc, d)
		}
	}
	for _, a := range c.dist.Anchors {
		d, ok := c.dist.OrigToDist[a]
		if !ok {
			c.report("MV005", a, "anchor %d has no distilled address", a)
			continue
		}
		if in := c.p.InstAt(d); in.Op != isa.OpFork || uint64(in.Imm) != a {
			c.report("MV005", d, "anchor %d maps to %d, which holds %v instead of its FORK", a, d, in)
		}
	}
}

// checkHalt reports MV007 when no halt is reachable: the plain program can
// never terminate. Distilled code is exempt — pruning legitimately drops
// cold halts, and the commit unit (running the original program) is what
// halts the machine.
func (c *checker) checkHalt() {
	if c.dist != nil {
		return
	}
	for pc := c.p.Code.Base; pc < c.p.Code.End(); pc++ {
		if c.p.InstAt(pc).Op == isa.OpHalt && c.reachableAt(pc) {
			return
		}
	}
	c.report("MV007", c.p.Entry, "no reachable halt; the program cannot terminate")
}

// checkStranded reports MV012 for every block distilled code reaches from
// its entry that can reach no halt, the distiller's post-condition checked
// from outside. Indirect jumps in distilled code carry original-program
// addresses, so the address-taken targets are mapped through OrigToDist
// (cfg.Graph.HaltReach).
func (c *checker) checkStranded() {
	if c.dist == nil {
		return
	}
	translate := func(a uint64) (uint64, bool) {
		d, ok := c.dist.OrigToDist[a]
		return d, ok
	}
	reach, halts := c.g.HaltReach(translate)
	for _, b := range c.g.Blocks {
		if reach[b.Start] && !halts[b.Start] {
			c.report("MV012", b.Start, "reachable from the entry but can reach no halt; a loop exit was pruned away")
		}
	}
}
