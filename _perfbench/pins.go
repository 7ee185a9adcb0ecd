package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"ucp/internal/backend"
	"ucp/internal/sim"
)

// Outcome pins: every job's committed instructions, simulated cycles,
// sampled window count and the SHA-256 of its determinism digest, plus
// the reference IPC ipc_err_pct is measured against, all recorded at
// DefaultSeed by `-write-pins`.

//go:embed pins.json
var pinsJSON []byte

type jobPin struct {
	Insts   uint64 `json:"insts"`
	Cycles  uint64 `json:"cycles"`
	Windows int    `json:"windows"`
	Digest  string `json:"digest_sha256"`
}

type workloadPins struct {
	Seed uint64            `json:"seed"`
	Jobs map[string]jobPin `json:"jobs"`
	// RefIPC is the primary job's reference IPC: full detail over the
	// same trace and budget, or the chain-serial sampled run (0 when the
	// workload is full-detail itself).
	RefIPC float64 `json:"ref_ipc"`
}

type pinFile map[string]workloadPins

func loadPins(data []byte) (pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("pins: %w", err)
	}
	return p, nil
}

func digestSHA(r sim.Result) string {
	sum := sha256.Sum256([]byte(r.DeterminismDigest()))
	return hex.EncodeToString(sum[:])
}

func windowsOf(r sim.Result) int {
	if r.Sampled != nil {
		return r.Sampled.Windows
	}
	return 0
}

func pinOf(r sim.Result) jobPin {
	return jobPin{Insts: r.Insts, Cycles: r.Cycles, Windows: windowsOf(r), Digest: digestSHA(r)}
}

// instSlack is how far a committed-instruction count may move with the
// seed: a measured span starts and stops on a commit cycle, so each
// end can overshoot by up to one commit width.
func instSlack(windows int) uint64 {
	return uint64(2*backend.DefaultConfig().CommitWidth) * uint64(max(1, windows))
}

// check compares one outcome against its pin. At the pinned seed every
// field must match; at any other seed only the seed-independent counts
// (committed instructions, to commit-width granularity, and the window
// count) are checked.
func (p workloadPins) check(o outcome, exact bool) error {
	if o.err != nil {
		return o.err
	}
	pin, ok := p.Jobs[o.job]
	if !ok {
		return fmt.Errorf("no pin for job %q", o.job)
	}
	got := pinOf(o.res)
	if got.Windows != pin.Windows {
		return fmt.Errorf("windows %d, pinned %d", got.Windows, pin.Windows)
	}
	if exact {
		if got != pin {
			return fmt.Errorf("outcome insts=%d cycles=%d digest=%.12s, pinned insts=%d cycles=%d digest=%.12s",
				got.Insts, got.Cycles, got.Digest, pin.Insts, pin.Cycles, pin.Digest)
		}
		return nil
	}
	lo, hi := pin.Insts-min(pin.Insts, instSlack(pin.Windows)), pin.Insts+instSlack(pin.Windows)
	if got.Insts < lo || got.Insts > hi {
		return fmt.Errorf("insts %d outside [%d, %d]", got.Insts, lo, hi)
	}
	return nil
}

// writePins records fresh pins for the named workloads (all when names
// is empty) into path, keeping every other workload's pins. Each
// workload runs twice from fresh set-ups; nothing is written unless
// both runs agree byte for byte and no job fails.
func writePins(path string, names []string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	pins, err := loadPins(data)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		var runs [2]workloadPins
		for i := range runs {
			in, err := w.setup(DefaultSeed, false)
			if err != nil {
				return fmt.Errorf("%s: set-up: %w", name, err)
			}
			runs[i] = workloadPins{Seed: DefaultSeed, Jobs: map[string]jobPin{}}
			for _, o := range in.run() {
				if o.err != nil {
					return fmt.Errorf("%s: %s: %w", name, o.job, o.err)
				}
				runs[i].Jobs[o.job] = pinOf(o.res)
			}
			if runs[i].RefIPC, _, err = reference(in); err != nil {
				return fmt.Errorf("%s: reference: %w", name, err)
			}
		}
		a, _ := json.Marshal(runs[0])
		b, _ := json.Marshal(runs[1])
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s: two fresh runs disagree; not writing pins", name)
		}
		pins[name] = runs[0]
		fmt.Fprintf(os.Stderr, "perfbench: pinned %s (%d jobs, ref ipc %.6f)\n", name, len(runs[0].Jobs), runs[0].RefIPC)
	}
	out, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
