package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// coldFlag runs the benchmark binary as a one-design extraction process.
const coldFlag = "cold-extract"

// coldResult is what a cold extraction process reports on standard output.
type coldResult struct {
	Seconds  float64 `json:"seconds"`
	P        string  `json:"p"`
	Verified bool    `json:"verified"`
	Err      string  `json:"error,omitempty"`
}

// runCold extracts the one design read from stdin, as a gfre process
// started on it would, and reports the outcome as JSON.
func runCold(name string, stdin io.Reader, stdout io.Writer) int {
	eqn, err := io.ReadAll(stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reading design: %v\n", err)
		return 1
	}
	ext, took, err := extractDesign(context.Background(), &design{Name: name, EQN: eqn})
	res := coldResult{Seconds: took.Seconds()}
	if err != nil {
		res.Err = err.Error()
	} else {
		res.P, res.Verified = ext.P.String(), ext.Verified
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// coldExtract extracts d in a fresh process of this binary, so no cache,
// heap or allocator state carries over from the designs before it. It
// returns the extraction's own time, EQN bytes to verified P(x), and the
// process's peak resident set. A result other than the planted, verified
// P(x) is an error wrapping errWrongPoly.
func coldExtract(ctx context.Context, d *design) (time.Duration, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "--"+coldFlag, d.Name)
	cmd.Stdin = bytes.NewReader(d.EQN)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return 0, 0, fmt.Errorf("%s: extraction process: %v: %s", d.Name, err, strings.TrimSpace(stderr.String()))
	}
	var res coldResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return 0, 0, fmt.Errorf("%s: extraction process output: %w", d.Name, err)
	}
	took := time.Duration(res.Seconds * float64(time.Second))
	var peak float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peak = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	switch {
	case res.Err != "":
		return took, peak, fmt.Errorf("%s: %s", d.Name, res.Err)
	case !res.Verified:
		return took, peak, fmt.Errorf("%s: %w: %s not verified", d.Name, errWrongPoly, res.P)
	case res.P != d.P.String():
		return took, peak, fmt.Errorf("%s: %w: recovered %s, planted %v", d.Name, errWrongPoly, res.P, d.P)
	}
	return took, peak, nil
}
