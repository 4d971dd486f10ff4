package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Host is the provenance printed with every result: absolute numbers from
// hosts that differ in any of these fields are not comparable.
type Host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func hostInfo(r *Run) (Host, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return Host{}, err
	}
	return Host{
		CPU:        cpuName(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     src,
		Workload:   r.Workload,
		Seed:       r.Seed,
		Seconds:    r.Seconds,
		Traced:     r.Trace != nil,
	}, nil
}

// commit is the git revision the binary was built from, when it was built
// inside a git work tree; a plain source checkout has none, and the source
// digest identifies the code instead.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "none"
	}
	return rev + dirty
}

// sourceDigest hashes go.mod and every .go file of the module rooted at
// root, in path order. It fails when root holds no ebslab module, so the
// benchmark refuses to run without the program's source.
func sourceDigest(root string) (string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module ebslab\n") {
		return "", fmt.Errorf("no ebslab module at %s (run from the repository root)", root)
	}
	var files []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
