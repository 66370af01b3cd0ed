package vfs

import (
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Mem is an in-memory FS with an explicit crash model, the substrate
// the crash-consistency harness runs on:
//
//   - Metadata operations — create, rename, remove, mkdir — are
//     durable the moment they return, modeling a journaling filesystem
//     whose metadata journal commits synchronously (the discipline the
//     checkpoint journal's rename-commit protocol assumes).
//   - File data is durable only up to the last successful Sync. Crash
//     truncates every file back to its last-synced content, so a
//     written-but-never-synced file survives as an empty husk — the
//     torn state a real power cut leaves behind.
//
// Mem is safe for concurrent use. The zero value is not usable;
// construct with NewMem.
type Mem struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
	seq   int64 // logical clock: mtimes and temp-name uniqueness
}

type memFile struct {
	data    []byte // visible content
	durable []byte // content surviving Crash (set by Sync; nil = nothing synced)
	mtime   time.Time
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{files: map[string]*memFile{}, dirs: map[string]bool{"/": true, ".": true}}
}

// Crash simulates power loss: every file's visible content reverts to
// its last-synced state. Names, directories and renames survive (the
// metadata-journal model); unsynced data does not.
//
//simlint:allow deadcode power cut for TestCrashAtEveryWriteBoundary and the other crash-consistency proofs
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	//simlint:allow determinism in-place state reset; nothing is emitted
	for _, f := range m.files {
		f.data = append([]byte(nil), f.durable...)
	}
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (m *Mem) tick() time.Time {
	m.seq++
	return time.Unix(0, m.seq)
}

func clean(name string) string { return filepath.Clean(name) }

func (m *Mem) Open(name string) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return nil, notExist("open", name)
	}
	return &memHandle{m: m, name: name, readOnly: true}, nil
}

func (m *Mem) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if dir == "" {
		dir = "."
	}
	dir = clean(dir)
	if !m.dirs[dir] {
		return nil, notExist("createtemp", dir)
	}
	prefix, suffix := pattern, ""
	if i := strings.LastIndexByte(pattern, '*'); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	m.seq++
	name := filepath.Join(dir, fmt.Sprintf("%s%d%s", prefix, m.seq, suffix))
	m.files[name] = &memFile{mtime: time.Unix(0, m.seq)}
	return &memHandle{m: m, name: name}, nil
}

func (m *Mem) ReadFile(name string) ([]byte, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, notExist("readfile", name)
	}
	return append([]byte(nil), f.data...), nil
}

func (m *Mem) Rename(oldpath, newpath string) error {
	oldpath, newpath = clean(oldpath), clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

func (m *Mem) Remove(name string) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

func (m *Mem) MkdirAll(path string, _ fs.FileMode) error {
	path = clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := path; ; p = filepath.Dir(p) {
		m.dirs[p] = true
		if p == filepath.Dir(p) {
			break
		}
	}
	return nil
}

func (m *Mem) Stat(name string) (fs.FileInfo, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[name]; ok {
		return memInfo{name: filepath.Base(name), size: int64(len(f.data)), mtime: f.mtime}, nil
	}
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, notExist("stat", name)
}

func (m *Mem) ReadDir(name string) ([]fs.DirEntry, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var names []string
	seen := map[string]bool{}
	//simlint:allow determinism entries are sorted before returning
	for p := range m.files {
		if filepath.Dir(p) == name {
			names = append(names, filepath.Base(p))
		}
	}
	//simlint:allow determinism entries are sorted before returning
	for d := range m.dirs {
		if d != name && filepath.Dir(d) == name && !seen[filepath.Base(d)] {
			seen[filepath.Base(d)] = true
			names = append(names, filepath.Base(d))
		}
	}
	sort.Strings(names)
	out := make([]fs.DirEntry, 0, len(names))
	for _, n := range names {
		full := filepath.Join(name, n)
		if f, ok := m.files[full]; ok {
			out = append(out, memEntry{memInfo{name: n, size: int64(len(f.data)), mtime: f.mtime}})
		} else {
			out = append(out, memEntry{memInfo{name: n, dir: true}})
		}
	}
	return out, nil
}

func (m *Mem) Chtimes(name string, _, mtime time.Time) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return notExist("chtimes", name)
	}
	f.mtime = mtime
	return nil
}

// memHandle is one open file. Reads serve the file's current visible
// content; writes append (the only write pattern the durability
// surfaces use — fresh temp files written front to back).
type memHandle struct {
	m        *Mem
	name     string
	readOnly bool
	offset   int
	closed   bool
}

func (h *memHandle) Name() string { return h.name }

func (h *memHandle) Read(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	f, ok := h.m.files[h.name]
	if !ok {
		return 0, notExist("read", h.name)
	}
	if h.offset >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[h.offset:])
	h.offset += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if h.readOnly {
		return 0, &fs.PathError{Op: "write", Path: h.name, Err: fs.ErrPermission}
	}
	f, ok := h.m.files[h.name]
	if !ok {
		return 0, notExist("write", h.name)
	}
	f.data = append(f.data, p...)
	f.mtime = h.m.tick()
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	f, ok := h.m.files[h.name]
	if !ok {
		return notExist("sync", h.name)
	}
	f.durable = append([]byte(nil), f.data...)
	return nil
}

func (h *memHandle) Close() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.closed = true
	return nil
}

// memInfo implements fs.FileInfo for Mem entries.
type memInfo struct {
	name  string
	size  int64
	mtime time.Time
	dir   bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return i.mtime }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}

// memEntry implements fs.DirEntry over memInfo.
type memEntry struct{ info memInfo }

func (e memEntry) Name() string               { return e.info.name }
func (e memEntry) IsDir() bool                { return e.info.dir }
func (e memEntry) Type() fs.FileMode          { return e.info.Mode().Type() }
func (e memEntry) Info() (fs.FileInfo, error) { return e.info, nil }
