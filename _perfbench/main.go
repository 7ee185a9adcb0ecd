// Command perfbench is the repository benchmark: it runs one workload
// for a fixed host-time budget, checks every simulated outcome against
// pinned values, and prints its metrics as one JSON line.
//
//	go run . -workload sampled -seed 1 -seconds 25 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// also runs the batch traced and reports the per-layer metrics (see
// README.md). -write-pins re-records pins.json at the default seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: full-compare, sampled, sweep or window-parallel")
		seed     = flag.Uint64("seed", DefaultSeed, "workload seed; the pins fully apply at the default seed")
		seconds  = flag.Float64("seconds", 10, "host seconds to measure for")
		traced   = flag.Int("trace", 0, "1: report per-layer metrics from a separate traced run")
		writeOut = flag.String("write-pins", "", "re-record the pins of -workload (all when empty) into this file and exit")
	)
	flag.Parse()
	if *writeOut != "" {
		var names []string
		if *name != "" {
			names = []string{*name}
		}
		if err := writePins(*writeOut, names); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	pins, err := loadPins(pinsJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	wp, ok := pins[w.name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: no pins for workload %q\n", w.name)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d loadavg=%q\n",
		w.name, *seed, *seconds, *traced, runtime.NumCPU(), loadavg())

	b := &bench{w: w, seed: *seed, pins: wp, log: os.Stderr}
	var metrics map[string]metric
	if *traced == 1 {
		metrics, err = b.perLayer(*seconds)
	} else {
		metrics, err = b.endToEnd(*seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// loadavg returns /proc/loadavg, so a noisy host shows in the log.
func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// resetPeakRSS restarts the process's high-water resident set at its
// current size (Linux: "5" to /proc/self/clear_refs). Where that is not
// possible VmHWM keeps its process-lifetime meaning.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's high-water resident set (VmHWM), 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
