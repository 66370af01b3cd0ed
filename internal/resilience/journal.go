// Package resilience is the shared crash-safety layer for every
// long-running path in the repository: a generic checkpoint journal
// (atomic snapshots with a versioned, checksummed header and fallback
// to the previous good snapshot) and the exit code an interrupted run
// reports. Every unit of work in this repository is a deterministic
// simulation, so a failed unit is not retried (it would fail the same
// way on every attempt), and a slow one is stopped only by cancelling
// its context.
//
// The journal generalizes the checkpoint discipline internal/campaign
// proved out: snapshots are written to a temporary file in the target
// directory and renamed into place, so a crash at any instant leaves
// either the old snapshot, the new snapshot, or the old snapshot
// rotated to its ".prev" slot — never a torn file. Corruption that
// slips past rename atomicity (bit rot, truncation by a full disk,
// hand editing) is caught by the CRC and length recorded in the
// header, and Load falls back to the previous good snapshot instead
// of failing the run.
package resilience

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"

	"cachewrite/internal/vfs"
)

// ExitInterrupted is the process exit code the CLIs use when a run was
// cancelled by SIGINT/SIGTERM after flushing a final checkpoint. It is
// distinct from 1 (failure) and 2 (usage) so scripts can distinguish
// "re-run to resume" from "broken".
const ExitInterrupted = 3

// journalMagic opens every snapshot file. The trailing format version
// is the *container* version; the payload schema carries its own
// version in the header's kind/version fields.
const journalMagic = "RSJ1"

// prevSuffix is appended to the snapshot path for the rotated
// previous-good snapshot.
const prevSuffix = ".prev"

// Journal persists snapshots of T at a fixed path. Save is atomic and
// rotates the prior snapshot to a ".prev" sibling; Load verifies the
// header (magic, kind, version, payload length, CRC-32) and falls back
// to the rotation when the current snapshot is corrupt. The zero value
// is not usable; construct with NewJournal.
type Journal[T any] struct {
	path    string
	kind    string
	version int
	fs      vfs.FS
}

// NewJournal returns a journal for snapshots of T at path. kind names
// the payload schema (e.g. "sweep", "campaign") and version its schema
// revision; Load ignores snapshots whose kind or version differ, so a
// schema change invalidates old journals instead of misdecoding them.
func NewJournal[T any](path, kind string, version int) *Journal[T] {
	return NewJournalFS[T](vfs.OS{}, path, kind, version)
}

// NewJournalFS is NewJournal on an explicit filesystem — the seam the
// crash-consistency harness uses to inject storage faults under every
// write boundary of a commit.
func NewJournalFS[T any](fsys vfs.FS, path, kind string, version int) *Journal[T] {
	return &Journal[T]{path: path, kind: kind, version: version, fs: fsys}
}

// Path returns the snapshot path.
func (j *Journal[T]) Path() string { return j.path }

// LoadInfo describes where a Load found its snapshot.
type LoadInfo struct {
	// Found reports whether any usable snapshot was loaded.
	Found bool
	// Fallback reports that the current snapshot was missing or corrupt
	// and the previous good snapshot was used instead.
	Fallback bool
	// Warnings describes corrupt snapshots encountered along the way
	// (empty on a clean load).
	Warnings []string
}

// Save atomically persists a snapshot: encode, write to a temp file in
// the same directory, rename the current snapshot (if any) to its
// ".prev" slot, then rename the temp file into place. A crash between
// the two renames leaves the previous snapshot in the ".prev" slot,
// which Load recovers.
func (j *Journal[T]) Save(v T) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("resilience: journal %s: encode: %w", j.path, err)
	}
	header := fmt.Sprintf("%s %s v%d crc32=%08x len=%d\n",
		journalMagic, j.kind, j.version, crc32.ChecksumIEEE(payload), len(payload))
	dir := filepath.Dir(j.path)
	if err := j.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("resilience: journal %s: %w", j.path, err)
	}
	tmp, err := j.fs.CreateTemp(dir, ".journal-*")
	if err != nil {
		return fmt.Errorf("resilience: journal %s: %w", j.path, err)
	}
	defer j.fs.Remove(tmp.Name())
	if _, err := fmt.Fprint(tmp, header); err != nil {
		tmp.Close()
		return fmt.Errorf("resilience: journal %s: %w", j.path, err)
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return fmt.Errorf("resilience: journal %s: %w", j.path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("resilience: journal %s: %w", j.path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resilience: journal %s: %w", j.path, err)
	}
	// Rotate the current snapshot to the ".prev" slot so Load has a
	// good snapshot to fall back to if anything corrupts the new one —
	// but only if the current snapshot itself validates. Rotating
	// blindly would shove a corrupt current (torn by an earlier crash)
	// over the last *good* ".prev", destroying the only recoverable
	// copy; a corrupt current is instead left for the commit rename to
	// overwrite.
	if _, err := j.fs.Stat(j.path); err == nil {
		if _, derr := j.decodeFile(j.path); derr == nil {
			if err := j.fs.Rename(j.path, j.path+prevSuffix); err != nil {
				return fmt.Errorf("resilience: journal %s: rotate: %w", j.path, err)
			}
		}
	}
	if err := j.fs.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("resilience: journal %s: %w", j.path, err)
	}
	return nil
}

// Load reads the most recent good snapshot. A missing journal is not
// an error (Found is false); a corrupt current snapshot falls back to
// the ".prev" rotation with a warning recorded in LoadInfo. Load
// returns an error only for I/O failures other than not-exist — a
// journal corrupt beyond recovery reads as "no snapshot" so the run
// starts fresh rather than dying.
func (j *Journal[T]) Load() (T, LoadInfo, error) {
	var zero T
	var info LoadInfo
	for _, cand := range []struct {
		path     string
		fallback bool
	}{{j.path, false}, {j.path + prevSuffix, true}} {
		v, err := j.decodeFile(cand.path)
		if err == nil {
			info.Found = true
			info.Fallback = cand.fallback
			return v, info, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if _, corrupt := err.(*corruptError); corrupt {
			info.Warnings = append(info.Warnings,
				fmt.Sprintf("snapshot %s unusable (%v); dropped", cand.path, err))
			continue
		}
		return zero, info, fmt.Errorf("resilience: journal %s: %w", cand.path, err)
	}
	return zero, info, nil
}

// Remove deletes the snapshot and its rotation (a completed run's
// cleanup). Missing files are not errors.
func (j *Journal[T]) Remove() error {
	var first error
	for _, p := range []string{j.path, j.path + prevSuffix} {
		if err := j.fs.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
			first = err
		}
	}
	return first
}

// corruptError marks snapshots rejected by header or checksum
// validation, as opposed to I/O failures.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return e.msg }

func corruptf(format string, args ...any) error {
	return &corruptError{msg: fmt.Sprintf(format, args...)}
}

// decodeFile reads and validates one snapshot file.
func (j *Journal[T]) decodeFile(path string) (T, error) {
	var zero T
	data, err := j.fs.ReadFile(path)
	if err != nil {
		return zero, err
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return zero, corruptf("no header line")
	}
	var (
		magic, kind string
		version     int
		crc         uint32
		plen        int
	)
	n, err := fmt.Sscanf(string(data[:nl]), "%s %s v%d crc32=%x len=%d",
		&magic, &kind, &version, &crc, &plen)
	if err != nil || n != 5 || magic != journalMagic {
		return zero, corruptf("bad header %q", string(data[:nl]))
	}
	if kind != j.kind || version != j.version {
		return zero, corruptf("snapshot is %s v%d, want %s v%d", kind, version, j.kind, j.version)
	}
	payload := data[nl+1:]
	if len(payload) != plen {
		return zero, corruptf("truncated payload: %d bytes, header says %d", len(payload), plen)
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return zero, corruptf("checksum mismatch: crc32 %08x, header says %08x", got, crc)
	}
	var v T
	if err := json.Unmarshal(payload, &v); err != nil {
		return zero, corruptf("payload decode: %v", err)
	}
	return v, nil
}
