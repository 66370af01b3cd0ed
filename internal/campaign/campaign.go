// Package campaign runs deterministic Monte Carlo fault-injection
// sweeps across write-policy and protection-scheme arms. Each trial
// generates a fresh synthetic reference stream and replays it through
// every arm's hierarchy under hierarchy-wide bit-upset injection
// (faults.InjectHierarchy); outcomes accumulate into per-arm,
// per-layer corrected / DUE / SDC tables.
//
// Determinism is the design center: the campaign seed derives every
// trial's trace seed and every arm's injection seed through splitmix64,
// so the same seed always produces byte-identical results regardless of
// wall-clock, interleaving or resume points. Trials are paired — trial
// t replays the same trace through every arm — so arm-to-arm deltas are
// not confounded by trace sampling noise.
//
// Long campaigns checkpoint their progress through the shared
// resilience journal (atomic temp-file + rename snapshots with a
// checksummed header and fallback to the previous good snapshot) and
// resume exactly: a resumed run continues from the last completed
// trial and, because trial seeds are position-derived, finishes with
// the same result an uninterrupted run would have produced. A corrupt
// checkpoint falls back to the previous snapshot — or starts fresh —
// instead of failing the campaign. Cancellation and deadlines arrive
// via context.Context.
package campaign

import (
	"context"
	"fmt"
	"strings"

	"cachewrite/internal/cache"
	"cachewrite/internal/faults"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/resilience"
	"cachewrite/internal/synth"
	"cachewrite/internal/writebuffer"
	"cachewrite/internal/writecache"
)

// Arm is one configuration under test: a named hierarchy topology with
// per-layer protection schemes. The Seed field of Config is overridden
// per trial.
type Arm struct {
	// Name labels the arm in reports, e.g. "wt+parity".
	Name string
	// Config is the injection configuration (Seed ignored).
	Config faults.HierarchyConfig
}

// Options carries the injection knobs shared by every standard arm.
type Options struct {
	// Layers selects the layers upsets strike (default all).
	Layers []faults.Layer
	// ErrorEvery injects one upset per layer per this many accesses
	// (default 50).
	ErrorEvery int
	// ScrubInterval scrubs ECC upset accumulation every this many
	// accesses (0 = no scrubbing).
	ScrubInterval int
	// XactFaultEvery injects one transient back-side transaction fault
	// per this many transactions (0 = none).
	XactFaultEvery int
}

func (o Options) withDefaults() Options {
	if len(o.Layers) == 0 {
		o.Layers = faults.AllLayers()
	}
	if o.ErrorEvery == 0 {
		o.ErrorEvery = 50
	}
	return o
}

// StandardArm builds one of the canonical policy/protection arms from
// a spec of the form "<wt|wb>+<parity|ecc|none>".
//
// The wt topology is the paper's Fig 6 write-through pipeline: an 8KB
// direct-mapped fetch-on-write write-through L1, a 5-entry 8B write
// cache, an 8-entry coalescing write buffer, and a 64KB write-through
// L2 — no level ever holds the only copy of clean data, which is what
// lets parity alone recover every clean-data upset (§3). The wb
// topology is a plain write-back L1 + write-back L2: dirty lines hold
// sole copies, so parity-only arms lose data on every dirty strike and
// ECC is required (§3 again, quantified).
func StandardArm(spec string, opt Options) (Arm, error) {
	opt = opt.withDefaults()
	policy, schemeName, ok := strings.Cut(spec, "+")
	if !ok {
		return Arm{}, fmt.Errorf("campaign: arm %q: want <wt|wb>+<parity|ecc|none>", spec)
	}
	hit, err := cache.ParseWriteHit(policy)
	if err != nil {
		return Arm{}, fmt.Errorf("campaign: arm %q: %w", spec, err)
	}
	scheme, err := faults.ParseScheme(schemeName)
	if err != nil {
		return Arm{}, fmt.Errorf("campaign: arm %q: %w", spec, err)
	}
	cfg := faults.HierarchyConfig{
		Layers:         opt.Layers,
		ErrorEvery:     opt.ErrorEvery,
		ScrubInterval:  opt.ScrubInterval,
		XactFaultEvery: opt.XactFaultEvery,
	}
	for l := range cfg.Schemes {
		cfg.Schemes[l] = scheme
	}
	l1 := cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: hit, WriteMiss: cache.FetchOnWrite}
	l2 := cache.Config{Size: 64 << 10, LineSize: 32, Assoc: 2,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
	if hit == cache.WriteThrough {
		l2.WriteHit = cache.WriteThrough
		cfg.Hierarchy = hierarchy.Config{
			L1:         l1,
			WriteCache: &writecache.Config{Entries: 5, LineSize: 8},
			L2:         &l2,
		}
		cfg.Buffer = &writebuffer.Config{Entries: 8, LineSize: 16, RetireInterval: 8}
	} else {
		cfg.Hierarchy = hierarchy.Config{L1: l1, L2: &l2}
	}
	return Arm{Name: spec, Config: cfg}, nil
}

// ParseArms builds arms from a comma-separated spec list, e.g.
// "wt+parity,wb+ecc,wb+parity".
func ParseArms(specs string, opt Options) ([]Arm, error) {
	var arms []Arm
	seen := map[string]bool{}
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		if seen[spec] {
			continue
		}
		seen[spec] = true
		a, err := StandardArm(spec, opt)
		if err != nil {
			return nil, err
		}
		arms = append(arms, a)
	}
	if len(arms) == 0 {
		return nil, fmt.Errorf("campaign: no arms in %q", specs)
	}
	return arms, nil
}

// Config parameterizes a campaign.
type Config struct {
	// Arms are the configurations under test.
	Arms []Arm
	// Trials is the number of Monte Carlo trials (traces) to run.
	Trials int
	// Seed is the campaign master seed; every trial and arm seed
	// derives from it deterministically.
	Seed uint64
	// TraceEvents is the synthetic trace length per trial (default
	// 30000).
	TraceEvents int
	// CheckpointPath, when non-empty, persists progress so an
	// interrupted campaign can resume. Written atomically.
	CheckpointPath string
	// CheckpointEvery checkpoints after this many completed trials
	// (default 16 when CheckpointPath is set).
	CheckpointEvery int
	// Logf, when non-nil, receives warnings (e.g. a corrupt checkpoint
	// snapshot that was dropped in favor of the previous good one).
	Logf func(format string, args ...any)
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if len(c.Arms) == 0 {
		return fmt.Errorf("campaign: no arms")
	}
	seen := map[string]bool{}
	for _, a := range c.Arms {
		if a.Name == "" {
			return fmt.Errorf("campaign: unnamed arm")
		}
		if seen[a.Name] {
			return fmt.Errorf("campaign: duplicate arm %q", a.Name)
		}
		seen[a.Name] = true
		if err := a.Config.Validate(); err != nil {
			return fmt.Errorf("campaign: arm %q: %w", a.Name, err)
		}
	}
	if c.Trials <= 0 {
		return fmt.Errorf("campaign: Trials must be positive")
	}
	if c.TraceEvents < 0 {
		return fmt.Errorf("campaign: TraceEvents must be non-negative")
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("campaign: CheckpointEvery must be non-negative")
	}
	return nil
}

// ArmResult is one arm's accumulated outcome.
type ArmResult struct {
	// Name is the arm's label.
	Name string `json:"name"`
	// Report aggregates every completed trial.
	Report faults.HierarchyReport `json:"report"`
}

// Result is a campaign's outcome. Fields and slice orders are fixed,
// so encoding/json produces byte-identical output for identical seeds.
type Result struct {
	// Seed is the campaign master seed.
	Seed uint64 `json:"seed"`
	// TrialsRequested and TrialsCompleted describe progress; they
	// differ only when the campaign was cancelled.
	TrialsRequested int `json:"trialsRequested"`
	TrialsCompleted int `json:"trialsCompleted"`
	// Arms holds per-arm results in configuration order.
	Arms []ArmResult `json:"arms"`
}

// splitmix64 is the canonical seed-derivation hash: uniform,
// bijective, and cheap. Deriving every trial/arm seed by position from
// the master seed makes resumption exact.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// traceSeed derives the trial's trace-generation seed.
func traceSeed(master uint64, trial int) uint64 {
	return splitmix64(master ^ uint64(trial)<<1)
}

// writePct is every trial trace's store percentage, roughly the
// paper's integer-workload store share.
const writePct = 40

// injectSeed derives one arm's injection seed for a trial.
func injectSeed(master uint64, trial, arm int) uint64 {
	return splitmix64(splitmix64(master^uint64(trial)<<1) + uint64(arm) + 1)
}

// checkpoint is the persisted progress of a campaign. Checkpoints from
// builds that also recorded "writePct" (always 40, today's writePct)
// still resume: decoding ignores the unknown field.
type checkpoint struct {
	Seed        uint64                   `json:"seed"`
	Trials      int                      `json:"trials"`
	TraceEvents int                      `json:"traceEvents"`
	ArmNames    []string                 `json:"armNames"`
	Done        int                      `json:"done"`
	Reports     []faults.HierarchyReport `json:"reports"`
}

// matches reports whether the checkpoint belongs to this configuration.
func (ck *checkpoint) matches(cfg Config) error {
	if ck.Seed != cfg.Seed || ck.Trials != cfg.Trials ||
		ck.TraceEvents != cfg.TraceEvents {
		return fmt.Errorf("campaign: checkpoint parameters (seed %d, %d trials) do not match the requested campaign (seed %d, %d trials)",
			ck.Seed, ck.Trials, cfg.Seed, cfg.Trials)
	}
	if len(ck.ArmNames) != len(cfg.Arms) {
		return fmt.Errorf("campaign: checkpoint has %d arms, campaign has %d", len(ck.ArmNames), len(cfg.Arms))
	}
	for i, a := range cfg.Arms {
		if ck.ArmNames[i] != a.Name {
			return fmt.Errorf("campaign: checkpoint arm %d is %q, campaign wants %q", i, ck.ArmNames[i], a.Name)
		}
	}
	if ck.Done < 0 || ck.Done > ck.Trials || len(ck.Reports) != len(ck.ArmNames) {
		return fmt.Errorf("campaign: corrupt checkpoint")
	}
	return nil
}

// checkpointVersion is the campaign checkpoint schema version
// recorded in the journal header; bump it when checkpoint or
// faults.HierarchyReport changes shape so stale snapshots read as
// "start fresh" instead of misdecoding.
const checkpointVersion = 1

// checkpointJournal is the resilience journal campaigns persist
// through: atomic snapshots, CRC-validated header, and fallback to the
// previous good snapshot when the current one is corrupt.
func checkpointJournal(path string) *resilience.Journal[checkpoint] {
	return resilience.NewJournal[checkpoint](path, "campaign", checkpointVersion)
}

// saveCheckpoint persists the checkpoint through the journal.
func saveCheckpoint(path string, ck *checkpoint) error {
	return checkpointJournal(path).Save(*ck)
}

// loadCheckpoint reads the most recent good checkpoint if one exists.
// A missing journal — or one corrupt beyond the previous-snapshot
// fallback — is not an error: the campaign starts fresh (warnings go
// to logf). A checkpoint for *different* campaign parameters is an
// error: silently discarding it would surprise the user, who asked to
// resume something else.
func loadCheckpoint(path string, cfg Config, logf func(string, ...any)) (*checkpoint, error) {
	ck, info, err := checkpointJournal(path).Load()
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
	}
	if logf != nil {
		for _, w := range info.Warnings {
			logf("campaign: checkpoint %s: %s", path, w)
		}
		if info.Fallback {
			logf("campaign: checkpoint %s: resumed from previous good snapshot (%d/%d trials)", path, ck.Done, ck.Trials)
		}
	}
	if !info.Found {
		return nil, nil
	}
	if err := ck.matches(cfg); err != nil {
		return nil, err
	}
	return &ck, nil
}

// Run executes the campaign. It honors ctx: on cancellation or
// deadline it checkpoints (when configured), returns the partial
// result, and reports the context's error. A completed campaign whose
// CheckpointPath is set removes the checkpoint file.
//
// For a fixed Config (including Seed), Run is fully deterministic:
// the returned Result — and its JSON encoding — is byte-identical
// across runs, interruptions and resumes.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.TraceEvents == 0 {
		cfg.TraceEvents = 30000
	}
	ckEvery := cfg.CheckpointEvery
	if ckEvery == 0 {
		ckEvery = 16
	}

	ck := &checkpoint{
		Seed:        cfg.Seed,
		Trials:      cfg.Trials,
		TraceEvents: cfg.TraceEvents,
		Reports:     make([]faults.HierarchyReport, len(cfg.Arms)),
	}
	for _, a := range cfg.Arms {
		ck.ArmNames = append(ck.ArmNames, a.Name)
	}
	if cfg.CheckpointPath != "" {
		prev, err := loadCheckpoint(cfg.CheckpointPath, cfg, cfg.Logf)
		if err != nil {
			return Result{}, err
		}
		if prev != nil {
			ck = prev
		}
	}

	result := func() Result {
		res := Result{Seed: cfg.Seed, TrialsRequested: cfg.Trials, TrialsCompleted: ck.Done}
		for i, a := range cfg.Arms {
			res.Arms = append(res.Arms, ArmResult{Name: a.Name, Report: ck.Reports[i]})
		}
		return res
	}

	for trial := ck.Done; trial < cfg.Trials; trial++ {
		if err := ctx.Err(); err != nil {
			if cfg.CheckpointPath != "" {
				if serr := saveCheckpoint(cfg.CheckpointPath, ck); serr != nil {
					return result(), fmt.Errorf("campaign: interrupted and checkpoint failed: %w", serr)
				}
			}
			return result(), fmt.Errorf("campaign: interrupted after %d/%d trials: %w", ck.Done, cfg.Trials, err)
		}
		// One trace per trial, shared by every arm (paired trials).
		tr, err := synth.HotCold(traceSeed(cfg.Seed, trial), cfg.TraceEvents,
			64, 16, 1<<20, 80, writePct)
		if err != nil {
			return result(), fmt.Errorf("campaign: trial %d: %w", trial, err)
		}
		for i, a := range cfg.Arms {
			acfg := a.Config
			acfg.Seed = injectSeed(cfg.Seed, trial, i)
			rep, err := faults.InjectHierarchy(acfg, tr)
			if err != nil {
				return result(), fmt.Errorf("campaign: trial %d arm %q: %w", trial, a.Name, err)
			}
			ck.Reports[i].Add(rep)
		}
		ck.Done = trial + 1
		if cfg.CheckpointPath != "" && ck.Done%ckEvery == 0 && ck.Done < cfg.Trials {
			if err := saveCheckpoint(cfg.CheckpointPath, ck); err != nil {
				return result(), fmt.Errorf("campaign: checkpoint: %w", err)
			}
		}
	}
	if cfg.CheckpointPath != "" {
		_ = checkpointJournal(cfg.CheckpointPath).Remove()
	}
	return result(), nil
}
