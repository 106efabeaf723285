package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workCounts are exact, deterministic counts of the work a run did.
// A change that only makes the simulator faster leaves every one of
// them identical at a given seed; they must also repeat exactly across
// every run of one source tree.
var workCounts = []string{
	"sim.cycles", "sim.tagged_packets", "sim.capped_jobs",
	"network.router_cycles", "network.stepped_cycles", "network.flits",
	"harness.jobs", "checkpoint.bytes",
}

// sourceDigest hashes the Go sources and module files of the checkout
// rooted at root, so work counts are compared only between runs of the
// same code.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .bench_build, VCS metadata
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, err := filepath.Rel(root, f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		fh, err := os.Open(f)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, fh)
		fh.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkLedger compares this run's work counts with those recorded by
// earlier runs of the same workload, seed and source tree in dir, then
// records any counts not seen before. It returns one message per count
// that differs.
func checkLedger(dir, workload string, seed uint64, src string, counts map[string]float64) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", workload, seed, src[:16]))
	seen := map[string]float64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &seen); err != nil {
			return nil, fmt.Errorf("work ledger %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	var diffs []string
	added := false
	for _, name := range workCounts {
		v, ok := counts[name]
		if !ok {
			continue
		}
		if old, ok := seen[name]; !ok {
			seen[name] = v
			added = true
		} else if old != v {
			diffs = append(diffs, fmt.Sprintf("%s = %v, an earlier run of this code counted %v", name, v, old))
		}
	}
	if !added {
		return diffs, nil
	}
	b, err := json.MarshalIndent(seen, "", "  ")
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return diffs, os.Rename(tmp, path)
}
