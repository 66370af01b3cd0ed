package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Sentinel errors for injected failures. Every injected fault wraps
// ErrFault plus the errno it models (syscall.ENOSPC, syscall.EIO), so
// callers classify with errors.Is and never string-match.
var (
	// ErrFault marks any error injected by a Faulty filesystem.
	ErrFault = errors.New("vfs: injected fault")
	// ErrCrashed is returned by every operation after a Faulty
	// filesystem hit its CrashAtOp boundary: the simulated machine has
	// lost power and nothing more can happen until recovery.
	ErrCrashed = errors.New("vfs: simulated crash (power cut)")
)

// IsStorageFault reports whether err is a storage-level failure — an
// injected fault, a simulated crash, or a real ENOSPC/EIO/EROFS from
// the OS — as opposed to logical errors like a missing file. The serve
// layer's per-tenant circuit breaker keys off this classification.
func IsStorageFault(err error) bool {
	return errors.Is(err, ErrFault) || errors.Is(err, ErrCrashed) ||
		errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EIO) ||
		errors.Is(err, syscall.EROFS)
}

// Kind names one injectable fault type.
type Kind uint8

const (
	// KindTornWrite: a Write persists only a prefix of its bytes, then
	// fails with EIO — the short-write-then-error shape of a torn
	// sector.
	KindTornWrite Kind = 1 << iota
	// KindENOSPC: a write-path operation fails with ENOSPC.
	KindENOSPC
	// KindReadEIO: a read-path operation fails with EIO (bit rot, bad
	// sector, dying device).
	KindReadEIO
	// KindRenameFail: a Rename fails with EIO without renaming.
	KindRenameFail
	// KindFsyncLie: Sync reports success without making data durable,
	// so the next Crash silently drops the "synced" bytes — the
	// firmware lie modern write-asymmetric devices are notorious for.
	KindFsyncLie
)

// String names the kind as accepted by ParsePlan.
func (k Kind) String() string {
	switch k {
	case KindTornWrite:
		return "torn"
	case KindENOSPC:
		return "enospc"
	case KindReadEIO:
		return "eio"
	case KindRenameFail:
		return "rename"
	case KindFsyncLie:
		return "fsynclie"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// AllKinds is every injectable fault kind.
const AllKinds = KindTornWrite | KindENOSPC | KindReadEIO | KindRenameFail | KindFsyncLie

// Plan is a reproducible fault schedule. The zero Plan injects
// nothing (the Faulty FS still counts operations, which is how the
// crash harness measures a commit's write-boundary count).
type Plan struct {
	// Seed seeds the injection RNG; identical plans over identical
	// operation sequences inject identical faults.
	Seed int64
	// Rate is the per-eligible-operation injection probability for the
	// kinds enabled in Kinds (0 disables probabilistic injection).
	Rate float64
	// Kinds enables fault types for probabilistic injection, and for
	// KindFsyncLie makes *every* Sync lie (a lying drive lies
	// consistently, not per call).
	Kinds Kind
	// FailAtOp, when > 0, injects FailKind at exactly the FailAtOp'th
	// counted operation (1-based) if that kind applies to the
	// operation; inapplicable combinations inject nothing.
	FailAtOp int
	// FailKind is the kind FailAtOp injects.
	FailKind Kind
	// CrashAtOp, when > 0, simulates power loss at the CrashAtOp'th
	// counted operation: that operation and every later one fail with
	// ErrCrashed. Pair with Mem.Crash() to drop unsynced data before
	// recovery.
	CrashAtOp int
}

// ParsePlan parses the CLI form of a plan:
//
//	seed=7,rate=0.02,kinds=torn+enospc+rename
//
// Recognized kinds: torn, enospc, eio, rename, fsynclie, all.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		// An empty plan injects nothing; a caller that wants no faults
		// should not construct a Faulty at all. Refusing here catches
		// flag plumbing that silently dropped the spec.
		return p, fmt.Errorf("vfs: empty fault plan (want key=value fields: seed, rate, kinds)")
	}
	seen := map[string]bool{}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("vfs: plan field %q is not key=value", field)
		}
		if seen[key] {
			// A duplicate key means one of the two values is ignored
			// silently — always a typo in the spec, never intent.
			return p, fmt.Errorf("vfs: duplicate plan field %q", key)
		}
		seen[key] = true
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return p, fmt.Errorf("vfs: plan seed %q: %w", val, err)
			}
			p.Seed = n
		case "rate":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return p, fmt.Errorf("vfs: plan rate %q must be in [0,1]", val)
			}
			p.Rate = f
		case "kinds":
			for _, name := range strings.Split(val, "+") {
				switch name {
				case "torn":
					p.Kinds |= KindTornWrite
				case "enospc":
					p.Kinds |= KindENOSPC
				case "eio":
					p.Kinds |= KindReadEIO
				case "rename":
					p.Kinds |= KindRenameFail
				case "fsynclie":
					p.Kinds |= KindFsyncLie
				case "all":
					p.Kinds = AllKinds
				default:
					return p, fmt.Errorf("vfs: unknown fault kind %q (want torn, enospc, eio, rename, fsynclie, all)", name)
				}
			}
		default:
			return p, fmt.Errorf("vfs: unknown plan field %q (want seed, rate, kinds)", key)
		}
	}
	return p, nil
}

// Counts is a Faulty filesystem's injection tally.
type Counts struct {
	Ops        int // counted operations so far
	Torn       int
	ENOSPC     int
	ReadEIO    int
	RenameFail int
	FsyncLies  int
	Crashed    int // operations refused after the crash boundary
}

func (c Counts) String() string {
	return fmt.Sprintf("ops=%d torn=%d enospc=%d eio=%d rename=%d fsynclie=%d crashed=%d",
		c.Ops, c.Torn, c.ENOSPC, c.ReadEIO, c.RenameFail, c.FsyncLies, c.Crashed)
}

// faultError wraps ErrFault together with the errno the fault models,
// so both errors.Is(err, vfs.ErrFault) and errors.Is(err, syscall.EIO)
// hold.
type faultError struct {
	kind  Kind
	op    string
	path  string
	under error
}

func (e *faultError) Error() string {
	return fmt.Sprintf("vfs: injected %s fault: %s %s: %v", e.kind, e.op, e.path, e.under)
}

func (e *faultError) Unwrap() []error { return []error{ErrFault, e.under} }

func injected(kind Kind, op, path string, under error) error {
	return &faultError{kind: kind, op: op, path: path, under: under}
}

// Faulty wraps an inner FS and injects faults according to a Plan.
// Construct with NewFaulty; safe for concurrent use. Operations are
// counted in arrival order (mutating operations only: temp creation,
// writes, syncs, renames, removes, mkdirs, chtimes), which is the
// coordinate system FailAtOp and CrashAtOp address.
type Faulty struct {
	inner FS

	mu      sync.Mutex
	plan    Plan
	rng     *rand.Rand
	counts  Counts
	crashed bool
}

// NewFaulty wraps inner with the fault plan.
func NewFaulty(inner FS, plan Plan) *Faulty {
	return &Faulty{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Reset replaces the plan and zeroes the operation counter and tallies
// (the crash harness reuses one Faulty across boundary iterations).
//
//simlint:allow deadcode fault-plan swap for TestCrashAtEveryWriteBoundary and TestBreakerShedsAfterStorageFaultJobs
func (f *Faulty) Reset(plan Plan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = plan
	f.rng = rand.New(rand.NewSource(plan.Seed))
	f.counts = Counts{}
	f.crashed = false
}

// Ops returns how many mutating operations have been counted.
func (f *Faulty) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts.Ops
}

// CountsSnapshot returns the injection tally so far.
func (f *Faulty) CountsSnapshot() Counts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// step counts one mutating operation and decides its fate: crashed,
// a planned fault kind, a probabilistic fault kind, or nothing (0).
// eligible is the set of kinds that can apply to this operation.
func (f *Faulty) step(eligible Kind) (Kind, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts.Ops++
	if f.plan.CrashAtOp > 0 && f.counts.Ops >= f.plan.CrashAtOp {
		f.crashed = true
	}
	if f.crashed {
		f.counts.Crashed++
		return 0, ErrCrashed
	}
	if f.plan.FailAtOp == f.counts.Ops && f.plan.FailKind&eligible != 0 {
		f.tally(f.plan.FailKind)
		return f.plan.FailKind, nil
	}
	if f.plan.Rate > 0 && f.plan.Kinds&eligible != 0 && f.rng.Float64() < f.plan.Rate {
		kind := f.pick(f.plan.Kinds & eligible)
		f.tally(kind)
		return kind, nil
	}
	return 0, nil
}

// readGate guards read-path operations: they are not counted, but they
// fail after a crash and are eligible for KindReadEIO injection.
func (f *Faulty) readGate() (Kind, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		f.counts.Crashed++
		return 0, ErrCrashed
	}
	if f.plan.Rate > 0 && f.plan.Kinds&KindReadEIO != 0 && f.rng.Float64() < f.plan.Rate {
		f.counts.ReadEIO++
		return KindReadEIO, nil
	}
	return 0, nil
}

// syncGate counts a Sync operation and decides whether it lies: a
// KindFsyncLie in Plan.Kinds makes every Sync lie (a lying device lies
// consistently), and FailAtOp can pin a single lie to one operation.
func (f *Faulty) syncGate() (lie bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts.Ops++
	if f.plan.CrashAtOp > 0 && f.counts.Ops >= f.plan.CrashAtOp {
		f.crashed = true
	}
	if f.crashed {
		f.counts.Crashed++
		return false, ErrCrashed
	}
	lie = f.plan.Kinds&KindFsyncLie != 0 ||
		(f.plan.FailAtOp == f.counts.Ops && f.plan.FailKind == KindFsyncLie)
	if lie {
		f.counts.FsyncLies++
	}
	return lie, nil
}

func (f *Faulty) tally(kind Kind) {
	switch kind {
	case KindTornWrite:
		f.counts.Torn++
	case KindENOSPC:
		f.counts.ENOSPC++
	case KindReadEIO:
		f.counts.ReadEIO++
	case KindRenameFail:
		f.counts.RenameFail++
	case KindFsyncLie:
		f.counts.FsyncLies++
	}
}

// pick chooses deterministically among the enabled eligible kinds.
func (f *Faulty) pick(set Kind) Kind {
	kinds := make([]Kind, 0, 5)
	for _, k := range [...]Kind{KindTornWrite, KindENOSPC, KindReadEIO, KindRenameFail, KindFsyncLie} {
		if set&k != 0 {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 1 {
		return kinds[0]
	}
	return kinds[f.rng.Intn(len(kinds))]
}

func (f *Faulty) Open(name string) (File, error) {
	if kind, err := f.readGate(); err != nil {
		return nil, err
	} else if kind == KindReadEIO {
		return nil, injected(kind, "open", name, syscall.EIO)
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{f: f, inner: inner}, nil
}

func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	if kind, err := f.step(KindENOSPC); err != nil {
		return nil, err
	} else if kind == KindENOSPC {
		return nil, injected(kind, "createtemp", dir, syscall.ENOSPC)
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{f: f, inner: inner}, nil
}

func (f *Faulty) ReadFile(name string) ([]byte, error) {
	if kind, err := f.readGate(); err != nil {
		return nil, err
	} else if kind == KindReadEIO {
		return nil, injected(kind, "readfile", name, syscall.EIO)
	}
	return f.inner.ReadFile(name)
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	if kind, err := f.step(KindRenameFail); err != nil {
		return err
	} else if kind == KindRenameFail {
		return injected(kind, "rename", oldpath, syscall.EIO)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Faulty) Remove(name string) error {
	if _, err := f.step(0); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *Faulty) MkdirAll(path string, perm fs.FileMode) error {
	if kind, err := f.step(KindENOSPC); err != nil {
		return err
	} else if kind == KindENOSPC {
		return injected(kind, "mkdirall", path, syscall.ENOSPC)
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *Faulty) Stat(name string) (fs.FileInfo, error) {
	if _, err := f.readGate(); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

func (f *Faulty) ReadDir(name string) ([]fs.DirEntry, error) {
	if kind, err := f.readGate(); err != nil {
		return nil, err
	} else if kind == KindReadEIO {
		return nil, injected(kind, "readdir", name, syscall.EIO)
	}
	return f.inner.ReadDir(name)
}

func (f *Faulty) Chtimes(name string, atime, mtime time.Time) error {
	if _, err := f.step(0); err != nil {
		return err
	}
	return f.inner.Chtimes(name, atime, mtime)
}

// faultyFile routes per-file operations through the injector.
type faultyFile struct {
	f     *Faulty
	inner File
}

func (h *faultyFile) Name() string { return h.inner.Name() }

func (h *faultyFile) Read(p []byte) (int, error) {
	if kind, err := h.f.readGate(); err != nil {
		return 0, err
	} else if kind == KindReadEIO {
		return 0, injected(kind, "read", h.inner.Name(), syscall.EIO)
	}
	return h.inner.Read(p)
}

func (h *faultyFile) Write(p []byte) (int, error) {
	kind, err := h.f.step(KindTornWrite | KindENOSPC)
	if err != nil {
		return 0, err
	}
	switch kind {
	case KindTornWrite:
		// Short write then error: a prefix lands, the rest is torn off.
		n, werr := h.inner.Write(p[:len(p)/2])
		if werr != nil {
			return n, werr
		}
		return n, injected(kind, "write", h.inner.Name(), syscall.EIO)
	case KindENOSPC:
		return 0, injected(kind, "write", h.inner.Name(), syscall.ENOSPC)
	}
	return h.inner.Write(p)
}

func (h *faultyFile) Sync() error {
	lie, err := h.f.syncGate()
	if err != nil {
		return err
	}
	if lie {
		// Report success without flushing: the next crash drops the
		// bytes this Sync promised were durable.
		return nil
	}
	return h.inner.Sync()
}

func (h *faultyFile) Close() error {
	h.f.mu.Lock()
	crashed := h.f.crashed
	h.f.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return h.inner.Close()
}
