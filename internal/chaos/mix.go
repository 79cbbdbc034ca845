package chaos

import "math/rand"

// Mix is one seed's draw over every axis a mixed soak varies (cmd/msspfuzz
// -mix): the engine, fusion, interpreter, distillation pass, taint mode,
// fault intensity and task window. Each soak flag varies one axis over a
// corpus of seeds; a mixed soak walks their combinations, one per seed.
// The draw is a pure function of the seed, and a failure artifact records
// it, so a replay reruns the seed exactly as drawn.
type Mix struct {
	// Engine is Options.Engine: det or parallel.
	Engine string `json:"engine"`
	// Fuse is Options.Fuse: on or off.
	Fuse string `json:"fuse"`
	// Interp is Options.Interp: fast or slow.
	Interp string `json:"interp"`
	// DistillPasses is Options.DistillPasses.
	DistillPasses bool `json:"distillPasses"`
	// Taint is Options.Taint.
	Taint bool `json:"taint"`
	// FaultIntensity is Options.FaultIntensity: 0, 0.25, 0.5 or 1.
	FaultIntensity float64 `json:"faultIntensity"`
	// TaskBuffer is the machine's task window, from the seed's Slaves to
	// 4×Slaves.
	TaskBuffer int `json:"taskBuffer"`
}

// DrawMix draws seed's mix from a rand stream of its own, so the generated
// program and the knobs stay what they are without a mix. On a quarter of
// the seeds the task window is the slave count, the shortest a machine
// runs, whose checkpoint windows end most often; on the rest it is drawn
// from the whole range.
func DrawMix(seed uint64) Mix {
	r := rand.New(rand.NewSource(int64(seed ^ 0x6d1c)))
	slaves := deriveKnobs(seed).Slaves
	m := Mix{
		Engine:         []string{EngineDet, EngineParallel}[r.Intn(2)],
		Fuse:           []string{"on", "off"}[r.Intn(2)],
		Interp:         []string{"fast", "slow"}[r.Intn(2)],
		DistillPasses:  r.Intn(2) == 0,
		Taint:          r.Intn(4) == 0,
		FaultIntensity: []float64{0, 0.25, 0.5, 1}[r.Intn(4)],
		TaskBuffer:     slaves,
	}
	if r.Intn(4) != 0 {
		m.TaskBuffer += r.Intn(3*slaves + 1)
	}
	return m
}

// Options returns the run options m selects for seed.
func (m Mix) Options(seed uint64) Options {
	return Options{
		Seed:           seed,
		FaultIntensity: m.FaultIntensity,
		Interp:         m.Interp,
		Fuse:           m.Fuse,
		DistillPasses:  m.DistillPasses,
		Engine:         m.Engine,
		Taint:          m.Taint,
		TaskBuffer:     m.TaskBuffer,
	}
}
