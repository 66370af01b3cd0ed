package main

import (
	"io/fs"
	"sync"
	"time"

	"cachewrite/internal/vfs"
)

// FSCounts is a snapshot of the operations a CountingFS has passed
// through: how many of each, bytes written, and time spent in Sync.
type FSCounts struct {
	Ops          map[string]int
	BytesWritten int64
	SyncTime     time.Duration
}

// CountingFS wraps a vfs.FS and counts and times every operation,
// including those on the files it opens. Ops are keyed by method name
// ("CreateTemp", "Write", "Sync", ...).
type CountingFS struct {
	inner vfs.FS

	mu  sync.Mutex
	cur FSCounts
}

// NewCountingFS wraps inner.
func NewCountingFS(inner vfs.FS) *CountingFS {
	return &CountingFS{inner: inner, cur: FSCounts{Ops: map[string]int{}}}
}

// Counts returns a copy of the counters.
func (c *CountingFS) Counts() FSCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.cur
	out.Ops = make(map[string]int, len(c.cur.Ops))
	for k, v := range c.cur.Ops {
		out.Ops[k] = v
	}
	return out
}

func (c *CountingFS) count(op string, written int, sync time.Duration) {
	c.mu.Lock()
	c.cur.Ops[op]++
	c.cur.BytesWritten += int64(written)
	c.cur.SyncTime += sync
	c.mu.Unlock()
}

func (c *CountingFS) file(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *CountingFS) Open(name string) (vfs.File, error) {
	c.count("Open", 0, 0)
	return c.file(c.inner.Open(name))
}

func (c *CountingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	c.count("CreateTemp", 0, 0)
	return c.file(c.inner.CreateTemp(dir, pattern))
}

func (c *CountingFS) ReadFile(name string) ([]byte, error) {
	c.count("ReadFile", 0, 0)
	return c.inner.ReadFile(name)
}

func (c *CountingFS) Rename(oldpath, newpath string) error {
	c.count("Rename", 0, 0)
	return c.inner.Rename(oldpath, newpath)
}

func (c *CountingFS) Remove(name string) error {
	c.count("Remove", 0, 0)
	return c.inner.Remove(name)
}

func (c *CountingFS) MkdirAll(path string, perm fs.FileMode) error {
	c.count("MkdirAll", 0, 0)
	return c.inner.MkdirAll(path, perm)
}

func (c *CountingFS) Stat(name string) (fs.FileInfo, error) {
	c.count("Stat", 0, 0)
	return c.inner.Stat(name)
}

func (c *CountingFS) ReadDir(name string) ([]fs.DirEntry, error) {
	c.count("ReadDir", 0, 0)
	return c.inner.ReadDir(name)
}

func (c *CountingFS) Chtimes(name string, atime, mtime time.Time) error {
	c.count("Chtimes", 0, 0)
	return c.inner.Chtimes(name, atime, mtime)
}

// countingFile counts the operations on one open file.
type countingFile struct {
	vfs.File
	fs *CountingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.count("Write", n, 0)
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.count("Sync", 0, time.Since(start))
	return err
}

func (f *countingFile) Close() error {
	f.fs.count("Close", 0, 0)
	return f.File.Close()
}
