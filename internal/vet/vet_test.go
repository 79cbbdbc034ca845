package vet

import (
	"fmt"
	"strings"
	"testing"

	"mssp/internal/asm"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/profile"
	"mssp/internal/workloads"
)

func checkSrc(t *testing.T, src string) []Finding {
	t.Helper()
	fs, err := Check(asm.MustAssemble(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// rules returns the distinct rule IDs present in fs.
func rules(fs []Finding) map[string]int {
	m := map[string]int{}
	for _, f := range fs {
		m[f.Rule]++
	}
	return m
}

func TestCleanProgramHasNoFindings(t *testing.T) {
	fs := checkSrc(t, `
		main:   ldi  r1, 10
		loop:   addi r2, r2, 3
		        addi r1, r1, -1
		        bnez r1, loop
		        halt
	`)
	if len(fs) != 0 {
		t.Fatalf("clean program produced findings: %v", fs)
	}
}

func TestJumpOffCode(t *testing.T) {
	// Assemble a legal program, then corrupt a jump target so it points
	// past the code segment (the assembler refuses to emit this itself).
	p := asm.MustAssemble(`
		main:   ldi r1, 1
		        j   done
		done:   halt
	`)
	p.Code.Words[1] = isa.Encode(isa.Inst{Op: isa.OpJal, Rd: isa.RegZero, Imm: int64(p.Code.End() + 5)})
	fs, err := Check(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["MV001"] == 0 {
		t.Fatalf("off-segment jump not reported: %v", fs)
	}
}

func TestWriteToR0(t *testing.T) {
	fs := checkSrc(t, `
		main:   add r0, r1, r2
		        halt
	`)
	if rules(fs)["MV002"] != 1 {
		t.Fatalf("write to r0 not reported exactly once: %v", fs)
	}
	// Link-less jumps via rd=r0 are the idiom, not a finding.
	fs = checkSrc(t, `
		main:   j   done
		done:   halt
	`)
	if rules(fs)["MV002"] != 0 {
		t.Fatalf("rd=r0 jump flagged: %v", fs)
	}
}

func TestUnreachableBlock(t *testing.T) {
	fs := checkSrc(t, `
		main:   j    done
		orphan: addi r1, r1, 1
		        j    done
		done:   halt
	`)
	if rules(fs)["MV003"] == 0 {
		t.Fatalf("unreachable block not reported: %v", fs)
	}
	// The same shape behind an indirect jump must stay silent: any block
	// can be a jalr target.
	fs = checkSrc(t, `
		main:   la   r5, done
		        jr   r5
		orphan: addi r1, r1, 1
		done:   halt
	`)
	if rules(fs)["MV003"] != 0 {
		t.Fatalf("unreachable-block rule fired under indirection: %v", fs)
	}
}

func TestUninitRead(t *testing.T) {
	fs := checkSrc(t, `
		main:   add  r3, r1, r2    ; r1, r2 never written anywhere
		        halt
	`)
	got := rules(fs)["MV004"]
	if got != 2 {
		t.Fatalf("want 2 uninit reads (r1, r2), got %d: %v", got, fs)
	}
	// Writes on only one path still may-initialize: no finding.
	fs = checkSrc(t, `
		main:   bnez r5, skip      ; r5 itself: 1 finding
		        ldi  r1, 7
		skip:   addi r2, r1, 1     ; r1 may be initialized
		        halt
	`)
	if got := rules(fs)["MV004"]; got != 1 {
		t.Fatalf("may-init must silence the branchy read; got %d findings: %v", got, fs)
	}
	// SP is seeded by the loader and exempt.
	fs = checkSrc(t, `
		main:   ld  r1, 0(sp)
		        st  r1, 1(sp)
		        halt
	`)
	if got := rules(fs)["MV004"]; got != 0 {
		t.Fatalf("SP read flagged: %v", fs)
	}
}

func TestForkInPlainProgram(t *testing.T) {
	p := asm.MustAssemble(`
		main:   ldi r1, 1
		        halt
	`)
	p.Code.Words[0] = isa.Encode(isa.Inst{Op: isa.OpFork, Imm: int64(p.Code.Base)})
	fs, err := Check(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["MV005"] == 0 {
		t.Fatalf("plain-program FORK not reported: %v", fs)
	}
}

const distillable = `
	main:   ldi  r1, 2048
	        ldi  r4, 0
	loop:   andi r2, r1, 127
	        bnez r2, common
	        addi r4, r4, 100
	common: addi r4, r4, 1
	        addi r1, r1, -1
	        bnez r1, loop
	        halt
`

func distilledProg(t *testing.T, passes bool) (*isa.Program, *Distilled) {
	t.Helper()
	p := asm.MustAssemble(distillable)
	prof, err := profile.Collect(p, profile.Options{Stride: 60})
	if err != nil {
		t.Fatal(err)
	}
	res, err := distill.Distill(p, prof, distill.Options{
		BiasThreshold: 0.95, MinBranchCount: 16,
		DeadCodeElim: passes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Prog, &Distilled{Anchors: res.Anchors, OrigToDist: res.OrigToDist}
}

func TestDistilledOutputIsClean(t *testing.T) {
	for _, passes := range []bool{false, true} {
		p, d := distilledProg(t, passes)
		fs, err := Check(p, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) != 0 {
			t.Fatalf("passes=%v: distiller output has findings: %v", passes, fs)
		}
	}
}

func TestForkAnchorMismatch(t *testing.T) {
	p, d := distilledProg(t, false)
	// Claim an anchor the program has no FORK for.
	bogus := *d
	bogus.Anchors = append(append([]uint64{}, d.Anchors...), 999999)
	fs, err := Check(p, &bogus)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["MV005"] == 0 {
		t.Fatalf("anchor without FORK not reported: %v", fs)
	}

	// Corrupt a FORK's payload so it names a non-anchor.
	p2, d2 := distilledProg(t, false)
	for i, w := range p2.Code.Words {
		if in := isa.Decode(w); in.Op == isa.OpFork {
			p2.Code.Words[i] = isa.Encode(isa.Inst{Op: isa.OpFork, Imm: in.Imm + 1})
			break
		}
	}
	fs, err = Check(p2, d2)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["MV005"] == 0 {
		t.Fatalf("corrupted FORK payload not reported: %v", fs)
	}
}

func TestLinkPreservation(t *testing.T) {
	p, d := distilledProg(t, false)
	// Splice a raw linking call into the distilled image. The word it
	// replaces is immaterial — the rule is a pure instruction-shape check.
	p.Code.Words[0] = isa.Encode(isa.Inst{Op: isa.OpJal, Rd: isa.RegRA, Imm: int64(p.Code.Base)})
	fs, err := Check(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["MV006"] == 0 {
		t.Fatalf("raw linking jal in distilled code not reported: %v", fs)
	}
	// jalr rd==rs1 is the documented inexpressible case: allowed.
	p.Code.Words[0] = isa.Encode(isa.Inst{Op: isa.OpJalr, Rd: isa.RegRA, Rs1: isa.RegRA})
	fs, err = Check(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if rules(fs)["MV006"] != 0 {
		t.Fatalf("jalr rd==rs1 flagged: %v", fs)
	}
}

func TestNoReachableHalt(t *testing.T) {
	fs := checkSrc(t, `
		main:   addi r1, r1, 1
		        j    main
		        halt                ; unreachable
	`)
	r := rules(fs)
	if r["MV007"] != 1 {
		t.Fatalf("missing reachable halt not reported: %v", fs)
	}
	// Distilled output is exempt even when pruning dropped the halt; the
	// clean-distill test above covers that via real distiller output.
}

// TestStrandedBlock: a jump-table loop entered only through its indirect
// jump, whose exit a distiller pruned into a jump, strands every block of
// the loop; with the exit kept, nothing is stranded.
func TestStrandedBlock(t *testing.T) {
	const src = `
	main:   ldi  r1, 64
	        la   r3, table
	loop:   andi r2, r1, 1
	        add  r2, r2, r3
	        ld   r12, 0(r2)
	        jr   r12
	case0:  mul  r9, r1, r1
	        j    next
	case1:  addi r4, r4, 1
	next:   addi r1, r1, -1
	        %s
	        halt
	.data
	.org 4000
	table:  .word case0, case1
`
	for _, tc := range []struct {
		exit     string
		stranded bool
	}{{"j loop", true}, {"bnez r1, loop", false}} {
		p := asm.MustAssemble(fmt.Sprintf(src, tc.exit))
		ident := map[uint64]uint64{}
		for pc := p.Code.Base; pc < p.Code.End(); pc++ {
			ident[pc] = pc
		}
		fs, err := Check(p, &Distilled{OrigToDist: ident})
		if err != nil {
			t.Fatal(err)
		}
		if got := rules(fs)["MV012"] > 0; got != tc.stranded {
			t.Errorf("exit %q: MV012 reported %v, want %v: %v", tc.exit, got, tc.stranded, fs)
		}
	}
}

func TestColdCodeReachableViaForkRoots(t *testing.T) {
	// A distilled-shape program whose second FORK block no distilled edge
	// reaches: the master reaches it only by a reseed at its anchor, which
	// distilled-mode reachability models as a FORK root. No findings may
	// appear there, while plain-mode reachability reports the block.
	p := asm.MustAssemble(`
		main:   fork 0
		        ldi  r1, 64
		loop:   addi r1, r1, -1
		        bnez r1, loop
		        halt
		cold:   fork 10
		        addi r4, r4, 100
		        j    loop
	`)
	fs, err := Check(p, &Distilled{Anchors: []uint64{0, 10}, OrigToDist: map[uint64]uint64{0: 0, 10: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("FORK-rooted block has findings: %v", fs)
	}
	if fs, err = Check(p, nil); err != nil {
		t.Fatal(err)
	}
	if r := rules(fs); r["MV003"] != 1 {
		t.Fatalf("plain reachability should miss the cold block: %v", fs)
	}
}

// TestRegisteredWorkloadsAreClean is the repo-wide cleanliness gate that CI
// re-runs through cmd/msspvet: every registered workload, plain and
// distilled at both release thresholds, with and without analysis passes,
// must be finding-free.
func TestRegisteredWorkloadsAreClean(t *testing.T) {
	for _, w := range workloads.All() {
		p := w.Build(workloads.Train)
		fs, err := Check(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, f := range fs {
			t.Errorf("%s: %v", w.Name, f)
		}
		prof, err := profile.Collect(p, profile.Options{Stride: 100})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, thr := range []float64{0.95, 0.999} {
			for _, passes := range []bool{false, true} {
				res, err := distill.Distill(p, prof, distill.Options{
					BiasThreshold: thr, MinBranchCount: 16,
					DeadCodeElim: passes,
				})
				if err != nil {
					t.Fatalf("%s@%v: %v", w.Name, thr, err)
				}
				dfs, err := Check(res.Prog, &Distilled{Anchors: res.Anchors, OrigToDist: res.OrigToDist})
				if err != nil {
					t.Fatalf("%s distilled@%v: %v", w.Name, thr, err)
				}
				for _, f := range dfs {
					t.Errorf("%s distilled@%v passes=%v: %v", w.Name, thr, passes, f)
				}
			}
		}
	}
}

func TestRuleCatalogWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rules {
		if !strings.HasPrefix(r.ID, "MV") || len(r.ID) != 5 {
			t.Errorf("malformed rule ID %q", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate rule ID %q", r.ID)
		}
		seen[r.ID] = true
		if r.Summary == "" || r.Name == "" {
			t.Errorf("rule %s missing name or summary", r.ID)
		}
	}
	if len(Rules) != 12 {
		t.Errorf("catalog has %d rules, want 12", len(Rules))
	}
	for _, id := range TaintRules {
		if !seen[id] {
			t.Errorf("taint rule %s missing from the catalog", id)
		}
	}
}
