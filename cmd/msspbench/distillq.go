package main

import (
	"fmt"

	"mssp"
	"mssp/internal/workloads"
)

// distillQuality measures what the analysis-driven distillation pass buys
// across the whole workload suite at Train scale: the summed static size of
// the distilled programs, and the summed dynamic master instruction count
// from real MSSP runs (master work is the quantity distillation exists to
// shrink). Both are exact, deterministic counts — not wall clock — so the
// two labels in BENCH_core.json ("nopass" vs "analysis") are directly
// comparable across machines.
type distillQualityResult struct {
	staticOff, staticOn float64 // summed distilled code size, instructions
	masterOff, masterOn float64 // summed dynamic master instructions
}

func distillQuality() (distillQualityResult, error) {
	var out distillQualityResult
	measure := func(passes bool) (staticInsts, masterInsts float64, err error) {
		for _, w := range workloads.All() {
			opts := mssp.DefaultPipelineOptions()
			opts.Distill.DeadCodeElim = passes
			pl, err := mssp.Prepare(w.Build(workloads.Train), opts)
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", w.Name, err)
			}
			res, err := pl.Run()
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", w.Name, err)
			}
			staticInsts += float64(pl.Distilled.Stats.DistInsts)
			masterInsts += float64(res.MSSP.Metrics.MasterInsts)
		}
		return staticInsts, masterInsts, nil
	}
	var err error
	if out.staticOff, out.masterOff, err = measure(false); err != nil {
		return out, err
	}
	if out.staticOn, out.masterOn, err = measure(true); err != nil {
		return out, err
	}
	// The pass must never grow the master's program or its dynamic work;
	// refusing to record a regression keeps the tracked baseline honest.
	if out.staticOn > out.staticOff || out.masterOn > out.masterOff {
		return out, fmt.Errorf("analysis pass regressed distillation quality: static %v -> %v, master insts %v -> %v",
			out.staticOff, out.staticOn, out.masterOff, out.masterOn)
	}
	return out, nil
}
