// Command benchmark is the repository benchmark: four closed-loop MSSP
// workloads measured end to end, and a traced run that measures every layer
// from outside — by timing calls into the modules' public functions and by
// wall-stamping the engines' public hooks — without changing program code.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload par-lean --seed 1 --seconds 25 --trace 0
//
// Each metric prints as one line, "workload metric value unit", and the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Without --workload every workload runs in
// turn, each in a fresh child process of the same binary, so memory and GC
// state stay per workload. The exit status is non-zero when any result
// disagrees with the sequential reference. README.md documents the workloads
// and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks every workload to small inputs and exactly two timed
	// samples; the contract test runs it.
	smoke bool
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the JSON object a workload run prints last.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs every workload, each in a child process")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds of timed samples per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement, 0 the end-to-end one")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.workload == "" {
		os.Exit(runAll(o, trace))
	}
	os.Exit(runOne(o))
}

// runOne runs one workload in this process and prints its metrics and
// report. It returns the exit status.
func runOne(o options) int {
	w := byName(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %v)\n", o.workload, workloadNames())
		return 2
	}
	out, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	for _, m := range append(out.metrics, out.info...) {
		fmt.Printf("%s %s %s %s\n", w.name, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAIL %s\n", w.name, f)
	}
	rep := out.report()
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in turn, each in a child process of this
// binary, and returns non-zero if any of them failed.
func runAll(o options, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range catalog {
		cmd := exec.Command(self,
			"--workload", w.name,
			"--seed", strconv.FormatUint(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}
