package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance is the ledger header every result carries: the machine, the
// toolchain, the code and the seed the numbers were measured with.
func provenance(workload string, seed int64, threads int) map[string]any {
	model, flags := cpuInfo()
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"cpu_model":  model,
		"cpu_flags":  flags,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"threads":    threads,
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

// cpuInfo reads the first processor's model name and flags.
func cpuInfo() (model, flags string) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown", ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() && (model == "" || flags == "") {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			if flags == "" {
				flags = strings.TrimSpace(val)
			}
		}
	}
	return model, flags
}

// commit identifies the code under test: the git commit when the working
// directory is a git checkout, otherwise a digest of the Go sources and
// module files (a plain source export carries no commit).
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
			return ref
		}
		return ref
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))
}
