package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"

	"icost/internal/ooo"
	"icost/internal/workload"
)

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, skipping
// dot-directories (build output, VCS metadata): it names the code measured
// even where no VCS revision is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path)))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// modelCheckEntry is one fixed-input simulation compared with the cycle
// count recorded when the benchmark was written.
type modelCheckEntry struct {
	Bench  string  `json:"bench"`
	Cycles int64   `json:"cycles"`
	Want   int64   `json:"want"`
	IPC    float64 `json:"ipc"`
	OK     bool    `json:"ok"`
}

// modelGolden holds the simulated cycles of the Table 6 machine on fixed
// inputs (seed 42, 5000 instructions after 5000 warmup). Served answers are
// checked against direct library calls of the same code, which a change to
// the model itself would pass; these fixed points make it fail the run.
var modelGolden = []struct {
	bench  string
	cycles int64
}{
	{"mcf", 28650}, {"gcc", 10346}, {"vortex", 3956}, {"bzip", 11133},
}

const (
	modelSeed   = 42
	modelInsts  = 5000
	modelWarmup = 5000
)

func modelCheck(ctx context.Context) []modelCheckEntry {
	var out []modelCheckEntry
	for _, g := range modelGolden {
		e := modelCheckEntry{Bench: g.bench, Want: g.cycles}
		if ctx.Err() == nil {
			if res, err := simulateFixed(g.bench); err == nil {
				e.Cycles, e.IPC = res.Cycles, res.IPC()
			}
		}
		e.OK = e.Cycles == e.Want
		out = append(out, e)
	}
	return out
}

func simulateFixed(bench string) (*ooo.Result, error) {
	w, err := workload.Cached(bench, modelSeed)
	if err != nil {
		return nil, err
	}
	tr, err := w.Execute(modelWarmup+modelInsts, modelSeed+1)
	if err != nil {
		return nil, err
	}
	return ooo.Simulate(tr, ooo.DefaultConfig(), ooo.Options{Warmup: modelWarmup})
}
