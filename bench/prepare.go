package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/models"
)

// env is what every workload shares: the checkout, the three binaries built
// from it, and the trained-and-pruned zoo nets. Building and training are
// excluded from every end-to-end metric (they are the same work for every
// workload and every seed) and reported as bench.build_s / bench.fixtures_s.
type env struct {
	root     string // checkout root (holds go.mod)
	out      string // bench/out: everything the bench writes
	bin      string // bench/out/bin
	fixtures string // bench/out/fixtures-<hash of the deepsz binary>
	buildS   float64
	fixtureS float64
	meta     fixtureMeta
}

// fixtureMeta records what is fixed once the fixtures exist, so a run does
// not re-evaluate the pruned nets every time.
type fixtureMeta struct {
	// PrunedTop1 is top-1 accuracy (fraction) of each pruned net on its
	// fixed evalSamples-image test set.
	PrunedTop1 map[string]float64 `json:"pruned_top1"`
}

// evalSamples is the size of the fixed test set accuracy is measured on
// (the `deepsz eval` default).
const evalSamples = 600

// findRoot walks up from the working directory to the module root, so the
// bench runs the same from the checkout root (`go run ./bench`) and from
// its own directory (`go test`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "deepszd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no module root with cmd/deepszd above the working directory")
		}
		dir = parent
	}
}

// prepare builds the three commands and makes sure the fixtures exist.
func prepare(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, out: filepath.Join(root, "bench", "out")}
	e.bin = filepath.Join(e.out, "bin")
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}

	t0 := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(os.PathSeparator),
		"./cmd/deepsz", "./cmd/deepszd", "./cmd/deepszgw")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: go build: %w\n%s", err, out)
	}
	e.buildS = time.Since(t0).Seconds()

	// Fixtures are keyed by the deepsz binary that made them: a checkout
	// whose train/prune code changed gets fresh ones, a re-run reuses them.
	sum, err := fileHash(e.tool("deepsz"))
	if err != nil {
		return nil, err
	}
	e.fixtures = filepath.Join(e.out, "fixtures-"+sum[:12])
	t0 = time.Now()
	if err := e.ensureFixtures(ctx); err != nil {
		return nil, err
	}
	e.fixtureS = time.Since(t0).Seconds()
	return e, nil
}

func (e *env) tool(name string) string { return filepath.Join(e.bin, name) }

func (e *env) pruned(net string) string { return filepath.Join(e.fixtures, net+".pruned") }

func fileHash(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// ensureFixtures trains and prunes the four zoo nets with the real CLI at
// its defaults, once per deepsz binary.
func (e *env) ensureFixtures(ctx context.Context) error {
	metaPath := filepath.Join(e.fixtures, "meta.json")
	if data, err := os.ReadFile(metaPath); err == nil {
		if json.Unmarshal(data, &e.meta) == nil && len(e.meta.PrunedTop1) == len(models.All()) {
			return nil
		}
	}
	// Older binaries' fixtures are dead weight in a long-lived checkout.
	if old, err := filepath.Glob(filepath.Join(e.out, "fixtures-*")); err == nil {
		for _, d := range old {
			os.RemoveAll(d)
		}
	}
	if err := os.MkdirAll(e.fixtures, 0o755); err != nil {
		return err
	}
	e.meta = fixtureMeta{PrunedTop1: map[string]float64{}}
	for _, net := range models.All() {
		weights := filepath.Join(e.fixtures, net+".weights")
		if _, err := runTool(ctx, e.tool("deepsz"), "train", "-net", net, "-out", weights); err != nil {
			return err
		}
		if _, err := runTool(ctx, e.tool("deepsz"), "prune", "-net", net, "-in", weights, "-out", e.pruned(net)); err != nil {
			return err
		}
		ref, err := loadNet(net, e.pruned(net))
		if err != nil {
			return err
		}
		acc, err := top1(ref, net)
		if err != nil {
			return err
		}
		e.meta.PrunedTop1[net] = acc
	}
	data, err := json.MarshalIndent(e.meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(metaPath, data, 0o644)
}

// runTool runs one CLI call to completion and returns its wall time.
func runTool(ctx context.Context, path string, args ...string) (time.Duration, error) {
	t0 := time.Now()
	out, err := exec.CommandContext(ctx, path, args...).CombinedOutput()
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("bench: %s %v: %w\n%s", filepath.Base(path), args, err, out)
	}
	return d, nil
}
