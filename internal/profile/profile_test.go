package profile

import (
	"errors"
	"reflect"
	"testing"

	"mssp/internal/asm"
	"mssp/internal/cpu"
	"mssp/internal/isa"
)

const loopSrc = `
	        ldi  r1, 100       ; 0
	loop:   addi r2, r2, 1     ; 1
	        addi r1, r1, -1    ; 2
	        bnez r1, loop      ; 3
	        halt               ; 4
`

func TestCollectCounts(t *testing.T) {
	p := asm.MustAssemble(loopSrc)
	prof, err := Collect(p, Options{Stride: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Halted {
		t.Fatal("run did not halt")
	}
	// 1 + 3*100 + 1 = 302 instructions.
	if prof.Total != 302 {
		t.Errorf("Total = %d, want 302", prof.Total)
	}
	if prof.Exec[1] != 100 || prof.Exec[3] != 100 || prof.Exec[0] != 1 || prof.Exec[4] != 1 {
		t.Errorf("Exec counts wrong: %v", prof.Exec)
	}
	if prof.Taken[3] != 99 || prof.NotTaken[3] != 1 {
		t.Errorf("branch outcome counts: taken=%d nottaken=%d", prof.Taken[3], prof.NotTaken[3])
	}
	frac, total := prof.Bias(3)
	if total != 100 || frac != 0.99 {
		t.Errorf("Bias = %v,%v", frac, total)
	}
}

func TestAnchorsAreBlockLeadersAndSpaced(t *testing.T) {
	p := asm.MustAssemble(loopSrc)
	prof, err := Collect(p, Options{Stride: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The only recurring block boundary is the loop header at 1; with
	// stride 10 over a 3-instruction body the anchor lands there.
	if len(prof.Anchors) != 1 || prof.Anchors[0] != 1 {
		t.Errorf("Anchors = %v, want [1]", prof.Anchors)
	}
}

func TestAnchorStrideScales(t *testing.T) {
	p := asm.MustAssemble(loopSrc)
	small, err := Collect(p, Options{Stride: 3})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Collect(p, Options{Stride: 250})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Anchors) > len(small.Anchors) {
		t.Errorf("larger stride should not produce more anchors: %v vs %v", big.Anchors, small.Anchors)
	}
	if big.Stride != 250 || small.Stride != 3 {
		t.Error("Stride not recorded")
	}
}

func TestMaxStepsBoundsRun(t *testing.T) {
	p := asm.MustAssemble("spin: j spin\nhalt")
	prof, err := Collect(p, Options{Stride: 10, MaxSteps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Halted || prof.Total != 500 {
		t.Errorf("bounded run: halted=%v total=%d", prof.Halted, prof.Total)
	}
}

func TestCollectRejectsZeroStride(t *testing.T) {
	p := asm.MustAssemble("halt")
	if _, err := Collect(p, Options{}); err == nil {
		t.Error("zero stride accepted")
	}
}

func TestBiasUnknownBranch(t *testing.T) {
	p := asm.MustAssemble("halt")
	prof, err := Collect(p, Options{Stride: 10})
	if err != nil {
		t.Fatal(err)
	}
	if f, n := prof.Bias(12345); f != 0 || n != 0 {
		t.Error("Bias of never-executed branch should be 0,0")
	}
}

// program lays code out from address 0 and data, encoded instructions too,
// from address 100.
func program(code, data []isa.Inst) *isa.Program {
	p := &isa.Program{}
	for _, in := range code {
		p.Code.Words = append(p.Code.Words, isa.Encode(in))
	}
	if data != nil {
		seg := isa.Segment{Base: 100}
		for _, in := range data {
			seg.Words = append(seg.Words, isa.Encode(in))
		}
		p.Data = []isa.Segment{seg}
	}
	return p
}

// TestCollectHandComputed pins whole profiles, worked out by hand, for
// programs that leave the straight line: code that rewrites itself, code
// outside the code segment, a step bound inside a block, and a fault.
func TestCollectHandComputed(t *testing.T) {
	nop := isa.Inst{Op: isa.OpNop}
	halt := isa.Inst{Op: isa.OpHalt}
	cases := []struct {
		name string
		p    *isa.Program
		opts Options
		want Profile
	}{
		{
			// The store rewrites pc 5, later in its own block, into a jump
			// over pc 6 before pc 5 executes.
			name: "self-modifying",
			p: program([]isa.Inst{
				{Op: isa.OpLd, Rd: 4, Imm: 100}, // 0: r4 = "jal r0, 7"
				{Op: isa.OpSt, Rs2: 4, Imm: 5},  // 1: code[5] = r4
				nop, nop, nop, nop, nop, halt,   // 2..7
			}, []isa.Inst{{Op: isa.OpJal, Imm: 7}}),
			opts: Options{Stride: 1},
			want: Profile{
				Exec:  map[uint64]uint64{0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 7: 1},
				Total: 7, Halted: true, Stride: 1,
			},
		},
		{
			// A loop outside the code segment, entered by a jump and left
			// by a jump back.
			name: "off-segment",
			p: program([]isa.Inst{
				{Op: isa.OpLdi, Rd: 1, Imm: 2}, // 0
				{Op: isa.OpJal, Imm: 100},      // 1
				halt,                           // 2
			}, []isa.Inst{
				{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1}, // 100
				{Op: isa.OpBne, Rs1: 1, Imm: 100},        // 101: taken once
				{Op: isa.OpJal, Imm: 2},                  // 102
			}),
			opts: Options{Stride: 1},
			want: Profile{
				Exec:     map[uint64]uint64{0: 1, 1: 1, 100: 2, 101: 2, 102: 1, 2: 1},
				Taken:    map[uint64]uint64{101: 1},
				NotTaken: map[uint64]uint64{101: 1},
				Total:    8, Halted: true, Stride: 1,
			},
		},
		{
			// MaxSteps ends the run one instruction into the loop body's
			// third trip. The loop header is the anchor.
			name: "step-bound",
			p:    asm.MustAssemble(loopSrc),
			opts: Options{Stride: 3, MaxSteps: 8},
			want: Profile{
				Exec:    map[uint64]uint64{0: 1, 1: 3, 2: 2, 3: 2},
				Taken:   map[uint64]uint64{3: 2},
				Anchors: []uint64{1},
				Total:   8, Stride: 3,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Collect(tc.p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []*map[uint64]uint64{&tc.want.Exec, &tc.want.Taken, &tc.want.NotTaken} {
				if *m == nil {
					*m = map[uint64]uint64{}
				}
			}
			if tc.want.Anchors == nil {
				tc.want.Anchors = []uint64{}
			}
			if !reflect.DeepEqual(*got, tc.want) {
				t.Errorf("profile\n got %+v\nwant %+v", *got, tc.want)
			}
		})
	}

	t.Run("fault", func(t *testing.T) {
		p := program([]isa.Inst{
			{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 1}, // 0
			{Op: isa.OpBeq, Imm: 3},                 // 1: taken
			halt,                                    // 2
			halt,                                    // 3: made undecodable
		}, nil)
		p.Code.Words[3] = ^uint64(0)
		prof, err := Collect(p, Options{Stride: 1})
		var f *cpu.Fault
		if !errors.As(err, &f) || *f != (cpu.Fault{PC: 3, Word: ^uint64(0)}) || prof != nil {
			t.Errorf("Collect = %v, %v; want the fault at pc 3", prof, err)
		}
	})
}
