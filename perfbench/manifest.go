package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

// manifest identifies what a result was measured on: the code, the
// toolchain, the host and the inputs.
type manifest struct {
	Workload         string            `json:"workload"`
	Seed             int64             `json:"seed"`
	Seconds          int               `json:"seconds"`
	Traced           bool              `json:"traced"`
	Revision         string            `json:"git_revision"`
	SourceSHA256     string            `json:"source_sha256"`
	GoVersion        string            `json:"go_version"`
	NumCPU           int               `json:"nproc"`
	GOMAXPROCS       int               `json:"gomaxprocs"`
	CPUModel         string            `json:"cpu_model"`
	GeneratorVersion int               `json:"generator_version"`
	Traces           map[string]string `json:"trace_sha256"`
	ServeSeed        int64             `json:"serve_seed,omitempty"`
}

func newManifest(o *options, traces map[string]string) manifest {
	m := manifest{
		Workload:         o.workload,
		Seed:             o.seed,
		Seconds:          o.seconds,
		Traced:           o.trace,
		Revision:         gitRevision(o.root),
		SourceSHA256:     sourceHash(o.root),
		GoVersion:        runtime.Version(),
		NumCPU:           runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		CPUModel:         cpuModel(),
		GeneratorVersion: workload.GeneratorVersion,
		Traces:           traces,
	}
	if o.workload == "serve" {
		m.ServeSeed = o.seed
	}
	return m
}

// gitRevision reads HEAD from the repository's .git directory without
// running git; a checkout without one reports "unknown" and is
// identified by source_sha256 instead.
func gitRevision(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if rev, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and go.mod of the checkout (paths
// and contents, in path order), skipping dot directories such as the
// build directory.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// traceHash digests a trace's name and every event's fields.
func traceHash(t *trace.Trace) string {
	h := sha256.New()
	h.Write([]byte(t.Name))
	buf := make([]byte, 0, 8*4096)
	for i, e := range t.Events {
		buf = binary.LittleEndian.AppendUint32(buf, e.Addr)
		buf = binary.LittleEndian.AppendUint16(buf, e.Gap)
		buf = append(buf, e.Size, byte(e.Kind))
		if len(buf) == cap(buf) || i == len(t.Events)-1 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
